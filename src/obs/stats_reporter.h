#ifndef MIRA_OBS_STATS_REPORTER_H_
#define MIRA_OBS_STATS_REPORTER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/periodic_task.h"
#include "obs/slo.h"
#include "obs/windowed.h"

namespace mira::obs {

/// One periodic registry snapshot handed to a StatsSink.
struct StatsSnapshot {
  uint64_t sequence = 0;    ///< 1-based snapshot counter.
  double uptime_ms = 0.0;   ///< Since the reporter started.
  std::string registry_json;  ///< MetricRegistry::ExportJson() document.
  /// Windowed view (only when Options wired a WindowedMetrics / SloEngine):
  /// per-tracked-counter rates over the summary window and the current SLO
  /// states — the numbers that actually change tick to tick, instead of the
  /// cumulative-since-start gauges re-reported above. Empty otherwise.
  std::string windowed_summary;
};

/// Destination for periodic snapshots. Consume() runs on the reporter's
/// background thread, and the final snapshot's on the thread calling Stop();
/// implementations must be safe to call from either.
class StatsSink {
 public:
  virtual ~StatsSink() = default;
  virtual void Consume(const StatsSnapshot& snapshot) = 0;
};

/// Sink that rewrites one JSON file per snapshot (scrape-file style: the
/// file always holds the latest registry state).
class FileStatsSink : public StatsSink {
 public:
  explicit FileStatsSink(std::string path) : path_(std::move(path)) {}
  void Consume(const StatsSnapshot& snapshot) override;
  /// Non-OK when any write so far failed (write errors never throw into the
  /// reporter thread).
  [[nodiscard]] Status status() const;

 private:
  std::string path_;
  mutable Mutex mu_;
  Status status_ MIRA_GUARDED_BY(mu_);
};

/// Sink that buffers snapshots in memory, for tests.
class CapturingStatsSink : public StatsSink {
 public:
  void Consume(const StatsSnapshot& snapshot) override;
  std::vector<StatsSnapshot> snapshots() const;

 private:
  mutable Mutex mu_;
  std::vector<StatsSnapshot> snapshots_ MIRA_GUARDED_BY(mu_);
};

/// Periodic task that snapshots a MetricRegistry to a sink on a fixed
/// interval. Before each snapshot it runs the registered collectors —
/// callbacks that refresh pull-style gauges (memory usage, pool queue depth)
/// so the exported numbers are current rather than last-touched.
///
/// Lifecycle: construct → AddCollector()* → Start() → ... → Stop() (or let
/// the destructor stop it). Stop() wakes and joins the PeriodicTask, then
/// takes one final snapshot (only when it stopped a running reporter) so
/// short-lived processes still export.
class StatsReporter {
 public:
  struct Options {
    std::chrono::milliseconds interval{1000};
    /// The registry to snapshot (defaults to the process-global one).
    MetricRegistry* registry = nullptr;
    /// Optional windowed view: when set, every snapshot carries rates of the
    /// tracked counters over `summary_window_s` in `windowed_summary` (not
    /// owned; must outlive the reporter).
    const WindowedMetrics* windows = nullptr;
    /// Optional SLO view: current objective states join the summary, and the
    /// engine (not the reporter) logs state *transitions* — steady state is
    /// never re-logged (not owned; must outlive the reporter).
    const SloEngine* slo = nullptr;
    double summary_window_s = 60.0;
  };

  explicit StatsReporter(StatsSink* sink) : StatsReporter(sink, Options{}) {}
  StatsReporter(StatsSink* sink, Options options);
  ~StatsReporter();

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  /// Registers a refresh callback. Must be called before Start().
  void AddCollector(std::function<void()> collector);

  void Start();
  /// Idempotent; safe to call without Start().
  void Stop();

  bool running() const;
  uint64_t snapshots_taken() const;

 private:
  void TakeSnapshot();

  StatsSink* sink_;
  Options options_;

  mutable Mutex mu_;
  std::vector<std::function<void()>> collectors_ MIRA_GUARDED_BY(mu_);
  uint64_t snapshots_ MIRA_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point started_ MIRA_GUARDED_BY(mu_){};
  PeriodicTask task_;
};

}  // namespace mira::obs

#endif  // MIRA_OBS_STATS_REPORTER_H_
