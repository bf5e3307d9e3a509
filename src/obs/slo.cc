#include "obs/slo.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/query_log.h"

namespace mira::obs {

std::string_view SloStateToString(SloState state) {
  switch (state) {
    case SloState::kOk:
      return "ok";
    case SloState::kWarning:
      return "warning";
    case SloState::kBreach:
      return "breach";
  }
  return "unknown";
}

SloEngine::SloEngine(WindowedMetrics* windows, Options options)
    : windows_(windows), options_(std::move(options)) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricRegistry::Global();
  }
  if (options_.eval_interval_s <= 0.0) options_.eval_interval_s = 1.0;
  if (options_.max_history < 1) options_.max_history = 1;
}

SloEngine::~SloEngine() { Stop(); }

void SloEngine::AddObjective(SloObjective objective) {
  if (objective.target_fraction <= 0.0) objective.target_fraction = 1e-9;
  if (objective.target_fraction > 1.0) objective.target_fraction = 1.0;
  for (const std::string& name : objective.bad_counters) {
    windows_->TrackCounter(name);
  }
  for (const std::string& name : objective.total_counters) {
    windows_->TrackCounter(name);
  }
  if (objective.kind == SloObjective::Kind::kLatency) {
    windows_->TrackHistogram(objective.histogram);
  }
  Tracked tracked;
  tracked.state_gauge =
      &options_.registry->GetGauge("mira.slo." + objective.name + ".state");
  tracked.burn_fast_gauge = &options_.registry->GetGauge(
      "mira.slo." + objective.name + ".burn_fast");
  tracked.burn_slow_gauge = &options_.registry->GetGauge(
      "mira.slo." + objective.name + ".burn_slow");
  tracked.last.name = objective.name;
  tracked.last.target_fraction = objective.target_fraction;
  tracked.objective = std::move(objective);
  MutexLock lock(eval_mu_);
  tracked_.push_back(std::move(tracked));
}

bool SloEngine::WindowBurn(const SloObjective& objective, double window_s,
                           double* burn, double* bad_fraction,
                           uint64_t* total) const {
  uint64_t bad = 0;
  uint64_t all = 0;
  if (objective.kind == SloObjective::Kind::kRatio) {
    for (const std::string& name : objective.total_counters) {
      WindowedMetrics::WindowRate rate =
          windows_->CounterRate(name, window_s);
      if (!rate.ok) return false;
      all += rate.delta;
    }
    for (const std::string& name : objective.bad_counters) {
      WindowedMetrics::WindowRate rate =
          windows_->CounterRate(name, window_s);
      if (!rate.ok) return false;
      bad += rate.delta;
    }
  } else {
    WindowedMetrics::WindowHistogram window =
        windows_->HistogramWindow(objective.histogram, window_s);
    if (!window.ok) return false;
    all = window.delta.count;
    // Observations in buckets strictly above the threshold's own bucket are
    // "bad": within one sub-bucket (<= 25% relative width) of the exact cut.
    const size_t threshold_bucket =
        Histogram::BucketIndex(objective.threshold_ms);
    for (size_t b = threshold_bucket + 1; b < Histogram::kNumBuckets; ++b) {
      bad += window.delta.buckets[b];
    }
  }
  const double fraction =
      all > 0 ? static_cast<double>(bad) / static_cast<double>(all) : 0.0;
  *bad_fraction = fraction;
  *burn = fraction / objective.target_fraction;
  *total = all;
  return true;
}

void SloEngine::Evaluate(double now_s) {
  std::vector<SloStatus> statuses;
  statuses.reserve(tracked_.size());
  std::vector<SloTransition> transitions;
  for (Tracked& tracked : tracked_) {
    const SloObjective& objective = tracked.objective;
    SloStatus status;
    status.name = objective.name;
    status.target_fraction = objective.target_fraction;
    double slow_fraction = 0.0;
    uint64_t slow_total = 0;
    status.measurable =
        WindowBurn(objective, objective.fast_window_s, &status.burn_fast,
                   &status.bad_fraction_fast, &status.total_fast) &&
        WindowBurn(objective, objective.slow_window_s, &status.burn_slow,
                   &slow_fraction, &slow_total);

    SloState next = SloState::kOk;
    if (status.measurable) {
      const bool slow_burning = status.burn_slow >= objective.warn_burn;
      if (status.burn_fast >= objective.breach_burn && slow_burning) {
        next = SloState::kBreach;
      } else if (status.burn_fast >= objective.warn_burn || slow_burning) {
        next = SloState::kWarning;
      }
    }
    status.state = next;

    tracked.state_gauge->Set(static_cast<double>(static_cast<int>(next)));
    tracked.burn_fast_gauge->Set(status.burn_fast);
    tracked.burn_slow_gauge->Set(status.burn_slow);

    if (next != tracked.state) {
      SloTransition transition;
      transition.time_s = now_s;
      transition.objective = objective.name;
      transition.from = tracked.state;
      transition.to = next;
      transition.burn_fast = status.burn_fast;
      transition.burn_slow = status.burn_slow;
      transitions.push_back(transition);
      // Transitions are the signal; steady state is spam. Escalations into
      // breach warn, everything else informs.
      if (next == SloState::kBreach) {
        MIRA_LOG_WARNING() << "slo: " << objective.name << " "
                           << SloStateToString(tracked.state) << " -> breach"
                           << " (burn fast "
                           << StrFormat("%.2f", status.burn_fast) << " slow "
                           << StrFormat("%.2f", status.burn_slow) << ")";
      } else {
        MIRA_LOG_INFO() << "slo: " << objective.name << " "
                        << SloStateToString(tracked.state) << " -> "
                        << SloStateToString(next) << " (burn fast "
                        << StrFormat("%.2f", status.burn_fast) << " slow "
                        << StrFormat("%.2f", status.burn_slow) << ")";
      }
      if (options_.record_query_log) {
        QueryLogEntry entry;
        entry.SetMethod("slo");
        entry.SetTenant(objective.name);
        entry.ok = next == SloState::kOk;
        entry.duration_ms = status.burn_fast;  // burn, not a latency
        QueryLog::Global().Record(entry);
      }
      tracked.state = next;
    }
    tracked.last = status;
    statuses.push_back(std::move(status));
  }

  MutexLock lock(state_mu_);
  statuses_ = std::move(statuses);
  ++evaluations_;
  for (SloTransition& transition : transitions) {
    history_.push_back(std::move(transition));
    while (history_.size() > options_.max_history) history_.pop_front();
  }
}

void SloEngine::Step(double now_s) {
  MutexLock lock(eval_mu_);
  windows_->Tick(now_s);
  Evaluate(now_s);
}

void SloEngine::Start() {
  if (task_.running()) return;
  Step(MonotonicSeconds());
  task_.Start(std::chrono::duration<double>(options_.eval_interval_s),
              [this] { Step(MonotonicSeconds()); });
}

void SloEngine::Stop() { task_.Stop(); }

bool SloEngine::running() const { return task_.running(); }

std::vector<SloStatus> SloEngine::Statuses() const {
  MutexLock lock(state_mu_);
  return statuses_;
}

std::vector<SloTransition> SloEngine::History() const {
  MutexLock lock(state_mu_);
  return {history_.begin(), history_.end()};
}

uint64_t SloEngine::evaluations() const {
  MutexLock lock(state_mu_);
  return evaluations_;
}

}  // namespace mira::obs
