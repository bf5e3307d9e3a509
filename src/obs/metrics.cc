#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "common/string_util.h"

namespace mira::obs {

namespace {

void AtomicAdd(std::atomic<double>* target, double delta) noexcept {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) noexcept {
  double current = target->load(std::memory_order_relaxed);
  while (value < current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) noexcept {
  double current = target->load(std::memory_order_relaxed);
  while (value > current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

/// Stable shard assignment: each thread draws a round-robin shard id once,
/// shared by every histogram it touches.
size_t ThreadShard() noexcept {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint32_t>(Histogram::kShards);
  return shard;
}

/// "# HELP" payloads escape backslash and newline per the text exposition
/// format; everything else passes through verbatim.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out.append("\\\\");
    } else if (c == '\n') {
      out.append("\\n");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  out->append(StrFormat("%.9g", value));
}

void AppendJsonKey(std::string* out, const std::string& key) {
  out->push_back('"');
  out->append(key);  // metric names never contain characters needing escape
  out->append("\": ");
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  if (name.empty()) return "_";
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

void Gauge::Add(double delta) noexcept { AtomicAdd(&value_, delta); }

size_t Histogram::BucketIndex(double value) noexcept {
  if (!(value > 0.0)) return 0;  // non-positive and NaN both land in bucket 0
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // value in [0.5, 1)*2^e
  if (exponent <= kMinExponent) return 0;
  if (exponent > kMaxExponent) return kNumBuckets - 1;
  // 2*mantissa is in [1, 2); split that octave linearly.
  int sub = static_cast<int>((2.0 * mantissa - 1.0) * kSubBucketsPerOctave);
  if (sub < 0) sub = 0;
  if (sub >= kSubBucketsPerOctave) sub = kSubBucketsPerOctave - 1;
  return static_cast<size_t>(exponent - 1 - kMinExponent) *
             static_cast<size_t>(kSubBucketsPerOctave) +
         static_cast<size_t>(sub);
}

double Histogram::BucketLowerBound(size_t bucket) noexcept {
  if (bucket == 0) return 0.0;
  const int exponent =
      kMinExponent + static_cast<int>(bucket) / kSubBucketsPerOctave;
  const int sub = static_cast<int>(bucket) % kSubBucketsPerOctave;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBucketsPerOctave,
                    exponent);
}

double Histogram::BucketUpperBound(size_t bucket) noexcept {
  const int exponent =
      kMinExponent + static_cast<int>(bucket) / kSubBucketsPerOctave;
  const int sub = static_cast<int>(bucket) % kSubBucketsPerOctave;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBucketsPerOctave,
                    exponent);
}

void Histogram::Record(double value) noexcept {
  Shard& shard = shards_[ThreadShard()];
  shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  const uint64_t before = shard.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&shard.sum, value);
  if (before == 0) {
    // First value on this shard seeds min/max; the CAS loops below race
    // benignly with concurrent first-writers (both orders give the extremum).
    double expected = 0.0;
    shard.min.compare_exchange_strong(expected, value,
                                      std::memory_order_relaxed);
    expected = 0.0;
    shard.max.compare_exchange_strong(expected, value,
                                      std::memory_order_relaxed);
  }
  AtomicMin(&shard.min, value);
  AtomicMax(&shard.max, value);
}

void Histogram::RecordWithExemplar(double value, uint64_t id) noexcept {
  Record(value);
  if (id == 0) return;
  // Best-effort: a writer that loses the TryLock race drops the exemplar,
  // never the observation. The critical section is a handful of compares.
  if (!exemplar_mu_.TryLock()) return;
  size_t min_slot = 0;
  for (size_t slot = 0; slot < kNumExemplars; ++slot) {
    if (exemplars_[slot].id == 0) {
      min_slot = slot;
      break;
    }
    if (exemplars_[slot].value < exemplars_[min_slot].value) min_slot = slot;
  }
  // >= so an equal-valued newer observation wins: its log entry is the one
  // still likely to be resident in the ring.
  if (exemplars_[min_slot].id == 0 || value >= exemplars_[min_slot].value) {
    exemplars_[min_slot] = Exemplar{value, id};
  }
  exemplar_mu_.Unlock();
}

std::array<Histogram::Exemplar, Histogram::kNumExemplars>
Histogram::Exemplars() const {
  MutexLock lock(exemplar_mu_);
  return exemplars_;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.min = std::numeric_limits<double>::infinity();
  snap.max = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    // The count is the bucket sum, not a separate read of shard.count: with
    // writers active the two relaxed reads can disagree, and every consumer
    // (quantiles, windowed deltas) assumes count == Σ buckets.
    uint64_t shard_count = 0;
    for (size_t b = 0; b < kNumBuckets; ++b) {
      const uint64_t in_bucket =
          shard.buckets[b].load(std::memory_order_relaxed);
      snap.buckets[b] += in_bucket;
      shard_count += in_bucket;
    }
    if (shard_count == 0) continue;
    snap.count += shard_count;
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.min = std::min(snap.min, shard.min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, shard.max.load(std::memory_order_relaxed));
  }
  if (snap.count == 0) {
    snap.min = 0.0;
    snap.max = 0.0;
  }
  return snap;
}

void Histogram::Reset() noexcept {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.min.store(0.0, std::memory_order_relaxed);
    shard.max.store(0.0, std::memory_order_relaxed);
  }
  MutexLock lock(exemplar_mu_);
  exemplars_ = {};
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= rank) {
      const double lo = BucketLowerBound(b);
      const double hi = BucketUpperBound(b);
      const double within =
          (rank - static_cast<double>(before)) / static_cast<double>(buckets[b]);
      double value = lo + (hi - lo) * within;
      if (value < min) value = min;
      if (value > max) value = max;
      return value;
    }
  }
  return max;
}

MetricRegistry& MetricRegistry::Global() {
  // Intentionally leaked so the registry outlives every static destructor
  // that might still bump a cached counter reference.
  static MetricRegistry* registry =
      std::make_unique<MetricRegistry>().release();
  return *registry;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  MIRA_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  MIRA_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  MIRA_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricRegistry::SetHelp(const std::string& name, std::string help) {
  MutexLock lock(mu_);
  help_[name] = std::move(help);
}

std::string MetricRegistry::ExportText() const {
  MutexLock lock(mu_);
  // Help text falls back to the dotted name, which at least tells a scraper
  // which subsystem a sanitized name came from.
  const auto help_for = [this](const std::string& name) {
    auto it = help_.find(name);
    return EscapeHelp(it == help_.end() ? name : it->second);
  };
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusMetricName(name);
    out.append(
        StrFormat("# HELP %s %s\n", prom.c_str(), help_for(name).c_str()));
    out.append(StrFormat("# TYPE %s counter\n", prom.c_str()));
    out.append(StrFormat("%s %llu\n", prom.c_str(),
                         static_cast<unsigned long long>(counter->value())));
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusMetricName(name);
    out.append(
        StrFormat("# HELP %s %s\n", prom.c_str(), help_for(name).c_str()));
    out.append(StrFormat("# TYPE %s gauge\n", prom.c_str()));
    out.append(StrFormat("%s %.9g\n", prom.c_str(), gauge->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = PrometheusMetricName(name);
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    out.append(
        StrFormat("# HELP %s %s\n", prom.c_str(), help_for(name).c_str()));
    out.append(StrFormat("# TYPE %s histogram\n", prom.c_str()));
    uint64_t cumulative = 0;
    for (size_t b = 0; b < snap.buckets.size(); ++b) {
      if (snap.buckets[b] == 0) continue;
      cumulative += snap.buckets[b];
      out.append(StrFormat("%s_bucket{le=\"%.9g\"} %llu\n", prom.c_str(),
                           Histogram::BucketUpperBound(b),
                           static_cast<unsigned long long>(cumulative)));
    }
    out.append(StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", prom.c_str(),
                         static_cast<unsigned long long>(snap.count)));
    out.append(StrFormat("%s_sum %.9g\n", prom.c_str(), snap.sum));
    out.append(StrFormat("%s_count %llu\n", prom.c_str(),
                         static_cast<unsigned long long>(snap.count)));
  }
  return out;
}

std::map<std::string, uint64_t> MetricRegistry::CounterValues() const {
  MutexLock lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, double> MetricRegistry::GaugeValues() const {
  MutexLock lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

std::string MetricRegistry::ExportJson() const {
  MutexLock lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonKey(&out, name);
    out.append(StrFormat("%llu",
                         static_cast<unsigned long long>(counter->value())));
  }
  out.append(first ? "},\n" : "\n  },\n");

  out.append("  \"gauges\": {");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonKey(&out, name);
    AppendJsonNumber(&out, gauge->value());
  }
  out.append(first ? "},\n" : "\n  },\n");

  out.append("  \"histograms\": {");
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonKey(&out, name);
    out.append(StrFormat("{\"count\": %llu, \"sum\": ",
                         static_cast<unsigned long long>(snap.count)));
    AppendJsonNumber(&out, snap.sum);
    out.append(", \"min\": ");
    AppendJsonNumber(&out, snap.min);
    out.append(", \"max\": ");
    AppendJsonNumber(&out, snap.max);
    out.append(", \"mean\": ");
    AppendJsonNumber(&out, snap.mean());
    out.append(", \"p50\": ");
    AppendJsonNumber(&out, snap.p50());
    out.append(", \"p90\": ");
    AppendJsonNumber(&out, snap.p90());
    out.append(", \"p99\": ");
    AppendJsonNumber(&out, snap.p99());
    out.append(", \"buckets\": [");
    bool first_bucket = true;
    for (size_t b = 0; b < snap.buckets.size(); ++b) {
      if (snap.buckets[b] == 0) continue;
      if (!first_bucket) out.append(", ");
      first_bucket = false;
      out.push_back('[');
      AppendJsonNumber(&out, Histogram::BucketLowerBound(b));
      out.append(", ");
      AppendJsonNumber(&out, Histogram::BucketUpperBound(b));
      out.append(StrFormat(", %llu]",
                           static_cast<unsigned long long>(snap.buckets[b])));
    }
    out.append("]");
    const auto exemplars = histogram->Exemplars();
    bool any_exemplar = false;
    for (const Histogram::Exemplar& exemplar : exemplars) {
      if (exemplar.id != 0) any_exemplar = true;
    }
    if (any_exemplar) {
      out.append(", \"exemplars\": [");
      bool first_exemplar = true;
      for (const Histogram::Exemplar& exemplar : exemplars) {
        if (exemplar.id == 0) continue;
        if (!first_exemplar) out.append(", ");
        first_exemplar = false;
        out.push_back('[');
        AppendJsonNumber(&out, exemplar.value);
        out.append(StrFormat(", %llu]",
                             static_cast<unsigned long long>(exemplar.id)));
      }
      out.append("]");
    }
    out.append("}");
  }
  out.append(first ? "}\n" : "\n  }\n");
  out.append("}\n");
  return out;
}

Status MetricRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("metrics: cannot open " + path);
  out << ExportJson();
  out.flush();
  if (!out) return Status::IoError("metrics: failed writing " + path);
  return Status::OK();
}

void MetricRegistry::ResetValues() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace mira::obs
