#include "service/watchdog.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace mira::service {

StuckQueryWatchdog::StuckQueryWatchdog(SnapshotFn snapshot, Options options)
    : options_(options), snapshot_(std::move(snapshot)) {
  if (options_.interval_s <= 0.0) options_.interval_s = 0.5;
  options_.overdue_factor = std::max(1.0, options_.overdue_factor);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  scans_metric_ = &registry.GetCounter("mira.watchdog.scans");
  stuck_metric_ = &registry.GetCounter("mira.watchdog.stuck");
  stuck_now_metric_ = &registry.GetGauge("mira.watchdog.stuck_inflight");
}

StuckQueryWatchdog::~StuckQueryWatchdog() { Stop(); }

void StuckQueryWatchdog::Start() {
  task_.Start(std::chrono::duration<double>(options_.interval_s),
              [this] { ScanOnce(MonotonicSeconds()); });
}

void StuckQueryWatchdog::Stop() { task_.Stop(); }

bool StuckQueryWatchdog::running() const { return task_.running(); }

uint64_t StuckQueryWatchdog::scans() const {
  MutexLock lock(mu_);
  return scans_;
}

uint64_t StuckQueryWatchdog::total_stuck() const {
  MutexLock lock(mu_);
  return total_stuck_;
}

std::vector<StuckReport> StuckQueryWatchdog::RecentReports() const {
  MutexLock lock(mu_);
  return {reports_.begin(), reports_.end()};
}

size_t StuckQueryWatchdog::ScanOnce(double now_s) {
  const std::vector<DiscoveryService::InflightInfo> inflight = snapshot_();

  // Classify outside the lock; only the report bookkeeping needs it.
  std::vector<StuckReport> fresh;
  std::set<uint64_t> live_stuck;
  for (const DiscoveryService::InflightInfo& info : inflight) {
    const double running_ms = (now_s - info.start_s) * 1000.0;
    const double budget_ms =
        info.budget_ms > 0.0 ? info.budget_ms : options_.no_deadline_budget_ms;
    const double threshold_ms =
        std::max(options_.min_overdue_ms, options_.overdue_factor * budget_ms);
    if (running_ms <= threshold_ms) continue;
    live_stuck.insert(info.id);
    StuckReport report;
    report.request_id = info.id;
    report.tenant = info.tenant;
    report.method = std::string(discovery::MethodToString(info.method));
    report.detected_at_s = now_s;
    report.running_ms = running_ms;
    report.budget_ms = info.budget_ms;
    fresh.push_back(std::move(report));
  }

  size_t new_offenders = 0;
  {
    MutexLock lock(mu_);
    ++scans_;
    // A dispatch id that left the inflight table is done; forget it so the
    // reported-set stays bounded by actual concurrency.
    for (auto it = reported_.begin(); it != reported_.end();) {
      it = live_stuck.count(*it) != 0 ? std::next(it) : reported_.erase(it);
    }
    std::vector<StuckReport> unreported;
    for (StuckReport& report : fresh) {
      if (reported_.count(report.request_id) == 0) {
        unreported.push_back(std::move(report));
      }
    }
    fresh = std::move(unreported);
    new_offenders = fresh.size();
  }
  stuck_now_metric_->Set(static_cast<double>(live_stuck.size()));
  scans_metric_->Increment();
  if (new_offenders == 0) return 0;

  for (const StuckReport& report : fresh) {
    MIRA_LOG_WARNING() << "watchdog: request " << report.request_id
                       << " (tenant " << report.tenant << ", "
                       << report.method << ") stuck: running "
                       << report.running_ms << " ms against budget "
                       << report.budget_ms << " ms";
    stuck_metric_->Increment();
  }

  {
    MutexLock lock(mu_);
    total_stuck_ += new_offenders;
    for (StuckReport& report : fresh) {
      reported_.insert(report.request_id);
      reports_.push_back(std::move(report));
    }
    while (reports_.size() > options_.max_reports) reports_.pop_front();
  }
  return new_offenders;
}

}  // namespace mira::service
