#include "obs/windowed.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace mira::obs {

WindowedMetrics::WindowedMetrics(Options options)
    : options_(std::move(options)) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricRegistry::Global();
  }
  if (options_.bucket_seconds <= 0.0) options_.bucket_seconds = 1.0;
  if (options_.ring_buckets < 2) options_.ring_buckets = 2;
}

void WindowedMetrics::TrackCounter(const std::string& name) {
  // Resolve outside mu_: GetCounter takes the registry lock, and nothing
  // orders registry mu before directory mu elsewhere — keep it that way.
  const Counter* source = &options_.registry->GetCounter(name);
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<CounterSeries>(
        CounterSeries{source, internal::SeqRing<CounterSample>(
                                  options_.ring_buckets)});
  }
}

void WindowedMetrics::TrackHistogram(const std::string& name) {
  const Histogram* source = &options_.registry->GetHistogram(name);
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<HistogramSeries>(
        HistogramSeries{source, internal::SeqRing<HistogramSample>(
                                    options_.ring_buckets)});
  }
}

void WindowedMetrics::Tick(double now_s) {
  // Collect stable series pointers under the directory lock, then publish
  // without it: publishing a histogram sample snapshots 8 shards and should
  // not hold up a concurrent Track* or window reader lookup.
  std::vector<CounterSeries*> counter_series;
  std::vector<HistogramSeries*> histogram_series;
  {
    MutexLock lock(mu_);
    counter_series.reserve(counters_.size());
    for (auto& [name, series] : counters_) {
      counter_series.push_back(series.get());
    }
    histogram_series.reserve(histograms_.size());
    for (auto& [name, series] : histograms_) {
      histogram_series.push_back(series.get());
    }
  }
  const uint64_t tick = ticks_.load(std::memory_order_relaxed);
  for (CounterSeries* series : counter_series) {
    CounterSample sample;
    sample.time_s = now_s;
    sample.value = series->source->value();
    series->ring.Publish(tick, sample);
  }
  for (HistogramSeries* series : histogram_series) {
    HistogramSample sample;
    sample.time_s = now_s;
    sample.snap = series->source->TakeSnapshot();
    series->ring.Publish(tick, sample);
  }
  ticks_.store(tick + 1, std::memory_order_release);
}

template <typename Sample>
bool WindowedMetrics::FindWindow(const internal::SeqRing<Sample>& ring,
                                 double window_s, Sample* newest,
                                 Sample* baseline) const {
  const uint64_t head = ticks_.load(std::memory_order_acquire);
  if (head < 2) return false;
  if (!ring.Read(head - 1, newest)) return false;
  const double boundary = newest->time_s - window_s;
  const uint64_t oldest =
      head > ring.capacity() ? head - ring.capacity() : 0;
  bool have_baseline = false;
  for (uint64_t tick = head - 1; tick > oldest;) {
    --tick;
    Sample candidate;
    // A failed read means this tick was recycled by a newer lap (the ticker
    // overtook us); everything older is gone too, so settle for what we have.
    if (!ring.Read(tick, &candidate)) break;
    *baseline = candidate;
    have_baseline = true;
    if (candidate.time_s <= boundary) break;  // youngest at-or-before boundary
  }
  return have_baseline && baseline->time_s < newest->time_s;
}

WindowedMetrics::WindowRate WindowedMetrics::CounterRate(
    const std::string& name, double window_s) const {
  WindowRate out;
  const CounterSeries* series = nullptr;
  {
    MutexLock lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) return out;
    series = it->second.get();
  }
  CounterSample newest;
  CounterSample baseline;
  if (!FindWindow(series->ring, window_s, &newest, &baseline)) return out;
  out.ok = true;
  out.covered_s = newest.time_s - baseline.time_s;
  out.delta = newest.value >= baseline.value ? newest.value - baseline.value
                                             : 0;  // counter was Reset
  out.rate_per_s = static_cast<double>(out.delta) / out.covered_s;
  return out;
}

WindowedMetrics::WindowHistogram WindowedMetrics::HistogramWindow(
    const std::string& name, double window_s) const {
  WindowHistogram out;
  const HistogramSeries* series = nullptr;
  {
    MutexLock lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) return out;
    series = it->second.get();
  }
  HistogramSample newest;
  HistogramSample baseline;
  if (!FindWindow(series->ring, window_s, &newest, &baseline)) return out;
  out.ok = true;
  out.covered_s = newest.time_s - baseline.time_s;
  Histogram::Snapshot& delta = out.delta;
  delta.count = newest.snap.count >= baseline.snap.count
                    ? newest.snap.count - baseline.snap.count
                    : 0;  // histogram was Reset between samples
  delta.sum = std::max(0.0, newest.snap.sum - baseline.snap.sum);
  size_t first_bucket = Histogram::kNumBuckets;
  size_t last_bucket = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t hi = newest.snap.buckets[b];
    const uint64_t lo = baseline.snap.buckets[b];
    delta.buckets[b] = hi >= lo ? hi - lo : 0;
    if (delta.buckets[b] != 0) {
      first_bucket = std::min(first_bucket, b);
      last_bucket = std::max(last_bucket, b);
    }
  }
  if (first_bucket < Histogram::kNumBuckets) {
    // Exact extremes are unrecoverable from a cumulative difference; the
    // covering bucket bounds keep interpolated quantiles inside the window.
    delta.min = Histogram::BucketLowerBound(first_bucket);
    delta.max = Histogram::BucketUpperBound(last_bucket);
  } else {
    delta.min = 0.0;
    delta.max = 0.0;
  }
  return out;
}

std::vector<std::string> WindowedMetrics::TrackedCounters() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [name, series] : counters_) out.push_back(name);
  return out;
}

}  // namespace mira::obs
