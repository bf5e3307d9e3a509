#ifndef MIRA_SERVICE_WATCHDOG_H_
#define MIRA_SERVICE_WATCHDOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/periodic_task.h"
#include "service/discovery_service.h"

namespace mira::service {

/// One in-flight request the watchdog flagged as stuck: it has been running
/// for more than `overdue_factor` times its deadline budget (or past the
/// no-deadline grace budget) without completing. Engine queries are supposed
/// to self-degrade and return *before* their deadline, so an overdue-by-3x
/// request means a worker is wedged — in a lock, a pathological scan, or an
/// injected fault — and would otherwise only surface as quiet tail latency.
struct StuckReport {
  uint64_t request_id = 0;  ///< DiscoveryService dispatch sequence id.
  std::string tenant;
  std::string method;
  double detected_at_s = 0.0;  ///< Monotonic seconds at detection.
  double running_ms = 0.0;     ///< Age when flagged.
  double budget_ms = 0.0;      ///< Deadline budget at dispatch (0 = none).
};

/// Background scanner over DiscoveryService::InflightSnapshot(). Each
/// interval it flags requests whose run time exceeds N× their dispatch-time
/// deadline budget, logs one report per offender (never re-reports the same
/// dispatch id), and bumps mira.watchdog.* counters. /profilez takes a CPU
/// profile of the wedged worker on demand.
///
/// Lifecycle: construct → Start() → ... → Stop() (or destructor); a
/// PeriodicTask scans once per interval. ScanOnce(now_s) is the
/// deterministic seam the tests drive directly, no thread involved.
class StuckQueryWatchdog {
 public:
  using SnapshotFn =
      std::function<std::vector<DiscoveryService::InflightInfo>()>;

  struct Options {
    /// Scan cadence of the periodic task.
    double interval_s = 0.5;
    /// A request is stuck once running_ms > overdue_factor * budget_ms ...
    double overdue_factor = 3.0;
    /// ... but never before this floor (keeps sub-millisecond budgets from
    /// flagging requests the scheduler merely hasn't run yet).
    double min_overdue_ms = 50.0;
    /// Budget charged to requests that carried no deadline at all.
    double no_deadline_budget_ms = 1000.0;
    /// Reports retained for RecentReports (oldest dropped first).
    size_t max_reports = 32;
  };

  StuckQueryWatchdog(SnapshotFn snapshot, Options options);
  ~StuckQueryWatchdog();

  StuckQueryWatchdog(const StuckQueryWatchdog&) = delete;
  StuckQueryWatchdog& operator=(const StuckQueryWatchdog&) = delete;

  void Start();
  /// Idempotent; safe without Start().
  void Stop();
  bool running() const;

  /// One scan at time `now_s` (monotonic seconds — the InflightInfo::start_s
  /// clock). Returns how many *new* offenders this scan flagged. Thread-safe
  /// with the background loop, though tests normally use one or the other.
  size_t ScanOnce(double now_s);

  /// Most recent reports, oldest first (bounded by Options::max_reports).
  std::vector<StuckReport> RecentReports() const;

  uint64_t scans() const;
  uint64_t total_stuck() const;

 private:
  Options options_;
  SnapshotFn snapshot_;

  /// mira.watchdog.* handles, resolved once.
  obs::Counter* scans_metric_;
  obs::Counter* stuck_metric_;
  obs::Gauge* stuck_now_metric_;

  mutable Mutex mu_;
  uint64_t scans_ MIRA_GUARDED_BY(mu_) = 0;
  uint64_t total_stuck_ MIRA_GUARDED_BY(mu_) = 0;
  /// Dispatch ids already reported: one report per stuck request, however
  /// many scans it stays wedged for. Pruned to the ids still in flight.
  std::set<uint64_t> reported_ MIRA_GUARDED_BY(mu_);
  std::deque<StuckReport> reports_ MIRA_GUARDED_BY(mu_);
  obs::PeriodicTask task_;
};

}  // namespace mira::service

#endif  // MIRA_SERVICE_WATCHDOG_H_
