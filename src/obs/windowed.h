#ifndef MIRA_OBS_WINDOWED_H_
#define MIRA_OBS_WINDOWED_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/seq_ring.h"

namespace mira::obs {

/// Time-windowed aggregation over the cumulative Counter/Histogram
/// primitives: a background ticker captures point-in-time snapshots of each
/// tracked metric into a lock-free ring of time buckets, and readers compute
/// "rate over the last 60 s" or "p99 over the last 5 m" by subtracting two
/// cumulative samples — the hot-path write side (Counter::Add,
/// Histogram::Record) is never touched, and readers never block a writer.
///
/// Windows are anchored at the *newest tick*, not the caller's clock: a
/// window query subtracts the youngest sample that is at least `window_s`
/// older than the newest one (or the oldest still resident, reporting the
/// actually covered span). With an injected clock this makes every
/// computation deterministic, which is what the SLO burn-rate tests lean on.
///
/// Thread-safety: Track* and Tick are for one coordinating thread (the
/// SloEngine's, or a test's); the window readers are safe from any thread
/// concurrently with Tick and with the underlying metric writers.
class WindowedMetrics {
 public:
  struct Options {
    /// Nominal spacing between ticks — the time-bucket width. The engine
    /// does not schedule ticks itself; whoever calls Tick owns the cadence
    /// (SloEngine uses its evaluation interval).
    double bucket_seconds = 5.0;
    /// Ring length per tracked series; with the default bucket width, 64
    /// buckets retain > 5 minutes of history. Rounded up to a power of two.
    size_t ring_buckets = 64;
    /// Registry the tracked names resolve in (default: the process-global).
    MetricRegistry* registry = nullptr;
  };

  WindowedMetrics() : WindowedMetrics(Options()) {}
  explicit WindowedMetrics(Options options);

  WindowedMetrics(const WindowedMetrics&) = delete;
  WindowedMetrics& operator=(const WindowedMetrics&) = delete;

  /// Registers `name` (resolving it in the registry, creating it if absent)
  /// so Tick starts sampling it. Idempotent.
  void TrackCounter(const std::string& name);
  void TrackHistogram(const std::string& name);

  /// Captures one cumulative sample of every tracked series, stamped
  /// `now_s` (monotonic seconds). Single ticker at a time.
  void Tick(double now_s);

  /// Ticks published so far.
  uint64_t ticks() const { return ticks_.load(std::memory_order_acquire); }

  /// Counter delta/rate over (up to) the trailing `window_s` seconds.
  struct WindowRate {
    bool ok = false;       ///< Two distinct samples were available.
    double covered_s = 0;  ///< Actual span between the samples used.
    uint64_t delta = 0;
    double rate_per_s = 0.0;
  };
  WindowRate CounterRate(const std::string& name, double window_s) const;

  /// Windowed histogram view: the bucketwise difference between the newest
  /// cumulative snapshot and the window baseline. min/max are bucket-bound
  /// approximations (exact extremes are not recoverable from deltas), so
  /// quantiles stay clamped to observed buckets.
  struct WindowHistogram {
    bool ok = false;
    double covered_s = 0.0;
    Histogram::Snapshot delta;
  };
  WindowHistogram HistogramWindow(const std::string& name,
                                  double window_s) const;

  /// Counter names currently tracked (for debugz rendering).
  std::vector<std::string> TrackedCounters() const;

  const Options& options() const { return options_; }

 private:
  struct CounterSample {
    double time_s = 0.0;
    uint64_t value = 0;
  };
  struct HistogramSample {
    double time_s = 0.0;
    Histogram::Snapshot snap;
  };

  struct CounterSeries {
    const Counter* source = nullptr;
    internal::SeqRing<CounterSample> ring;
  };
  struct HistogramSeries {
    const Histogram* source = nullptr;
    internal::SeqRing<HistogramSample> ring;
  };

  /// Walks the ring back from the newest tick to the youngest sample at
  /// least `window_s` older than it. Returns false if fewer than two
  /// samples are readable.
  template <typename Sample>
  bool FindWindow(const internal::SeqRing<Sample>& ring, double window_s,
                  Sample* newest, Sample* baseline) const;

  Options options_;

  mutable Mutex mu_;
  /// unique_ptr slots so readers can hold a series pointer after dropping
  /// the directory lock; the rings themselves are lock-free.
  std::map<std::string, std::unique_ptr<CounterSeries>> counters_
      MIRA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<HistogramSeries>> histograms_
      MIRA_GUARDED_BY(mu_);

  std::atomic<uint64_t> ticks_{0};
};

}  // namespace mira::obs

#endif  // MIRA_OBS_WINDOWED_H_
