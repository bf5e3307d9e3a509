#include "obs/stats_reporter.h"

#include <fstream>
#include <utility>

#include "common/string_util.h"

namespace mira::obs {

void FileStatsSink::Consume(const StatsSnapshot& snapshot) {
  std::ofstream out(path_, std::ios::trunc);
  Status result = Status::OK();
  if (!out) {
    result = Status::IoError("stats sink: cannot open " + path_);
  } else {
    out << snapshot.registry_json;
    out.flush();
    if (!out) result = Status::IoError("stats sink: failed writing " + path_);
  }
  MutexLock lock(mu_);
  if (status_.ok()) status_ = std::move(result);
}

Status FileStatsSink::status() const {
  MutexLock lock(mu_);
  return status_;
}

void CapturingStatsSink::Consume(const StatsSnapshot& snapshot) {
  MutexLock lock(mu_);
  snapshots_.push_back(snapshot);
}

std::vector<StatsSnapshot> CapturingStatsSink::snapshots() const {
  MutexLock lock(mu_);
  return snapshots_;
}

StatsReporter::StatsReporter(StatsSink* sink, Options options)
    : sink_(sink), options_(std::move(options)) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricRegistry::Global();
  }
}

StatsReporter::~StatsReporter() { Stop(); }

void StatsReporter::AddCollector(std::function<void()> collector) {
  MutexLock lock(mu_);
  collectors_.push_back(std::move(collector));
}

void StatsReporter::Start() {
  if (task_.running()) return;
  {
    MutexLock lock(mu_);
    started_ = std::chrono::steady_clock::now();
  }
  task_.Start(options_.interval, [this] { TakeSnapshot(); });
}

void StatsReporter::Stop() {
  // Final snapshot on shutdown: a short-lived process (or a test) still gets
  // its state exported exactly once.
  if (task_.Stop()) TakeSnapshot();
}

bool StatsReporter::running() const { return task_.running(); }

uint64_t StatsReporter::snapshots_taken() const {
  MutexLock lock(mu_);
  return snapshots_;
}

void StatsReporter::TakeSnapshot() {
  std::vector<std::function<void()>> collectors;
  uint64_t sequence = 0;
  std::chrono::steady_clock::time_point started;
  {
    MutexLock lock(mu_);
    collectors = collectors_;
    sequence = ++snapshots_;
    started = started_;
  }
  // Collectors refresh pull-style gauges (memory, pool depth) outside the
  // reporter lock — they may take other locks of their own.
  for (const std::function<void()>& collector : collectors) collector();

  StatsSnapshot snapshot;
  snapshot.sequence = sequence;
  snapshot.uptime_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  snapshot.registry_json = options_.registry->ExportJson();
  if (options_.windows != nullptr) {
    for (const std::string& name : options_.windows->TrackedCounters()) {
      const WindowedMetrics::WindowRate rate =
          options_.windows->CounterRate(name, options_.summary_window_s);
      if (!rate.ok) continue;
      snapshot.windowed_summary.append(
          StrFormat("rate %s %.2f/s over %.1fs\n", name.c_str(),
                    rate.rate_per_s, rate.covered_s));
    }
  }
  if (options_.slo != nullptr) {
    for (const SloStatus& status : options_.slo->Statuses()) {
      snapshot.windowed_summary.append(StrFormat(
          "slo %s %s burn_fast %.2f burn_slow %.2f\n", status.name.c_str(),
          std::string(SloStateToString(status.state)).c_str(),
          status.burn_fast, status.burn_slow));
    }
  }
  sink_->Consume(snapshot);
}

}  // namespace mira::obs
