#ifndef MIRA_OBS_SLO_H_
#define MIRA_OBS_SLO_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/periodic_task.h"
#include "obs/windowed.h"

namespace mira::obs {

/// Objective health, worst first when sorting.
enum class SloState { kOk = 0, kWarning = 1, kBreach = 2 };

std::string_view SloStateToString(SloState state);

/// One declarative service-level objective over registered metrics.
///
/// Two kinds share the burn-rate math ("what fraction of the error budget is
/// the current window consuming, relative to steady-state"):
///  - kRatio: bad events / total events (e.g. shed fraction ≤ 1%). `bad` and
///    `total` are counter-name lists whose windowed deltas are summed.
///  - kLatency: observations above `threshold_ms` in `histogram` count as
///    bad; total is the window's observation count. target_fraction = 1 - q
///    expresses "p<q> ≤ threshold" (e.g. 0.01 for a p99 bound).
///
/// burn = bad_fraction / target_fraction — a burn of 1 means the budget is
/// being consumed exactly at the sustainable rate; 10 means ten times too
/// fast (the Google-SRE multiwindow alerting convention).
struct SloObjective {
  enum class Kind { kRatio = 0, kLatency = 1 };

  std::string name;
  Kind kind = Kind::kRatio;

  /// kRatio inputs.
  std::vector<std::string> bad_counters;
  std::vector<std::string> total_counters;

  /// kLatency inputs.
  std::string histogram;
  double threshold_ms = 5.0;

  /// Allowed bad fraction (the error budget), in (0, 1].
  double target_fraction = 0.01;

  /// Multiwindow burn-rate alerting: the fast window reacts, the slow window
  /// confirms (and provides hysteresis on recovery).
  double fast_window_s = 60.0;
  double slow_window_s = 300.0;
  /// Burn thresholds: warning when either window burns >= warn_burn, breach
  /// when the fast window burns >= breach_burn while the slow window also
  /// burns >= warn_burn.
  double warn_burn = 1.0;
  double breach_burn = 10.0;
};

/// Point-in-time evaluation of one objective.
struct SloStatus {
  std::string name;
  SloState state = SloState::kOk;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
  double bad_fraction_fast = 0.0;  ///< Raw bad fraction in the fast window.
  uint64_t total_fast = 0;         ///< Events seen in the fast window.
  double target_fraction = 0.0;
  bool measurable = false;  ///< False until the windows hold >= 2 samples.
};

/// One state-machine transition, kept in a bounded history for /slozz and
/// offline analysis.
struct SloTransition {
  double time_s = 0.0;
  std::string objective;
  SloState from = SloState::kOk;
  SloState to = SloState::kOk;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
};

/// Background evaluator of declarative SLOs over a WindowedMetrics engine.
///
/// Each evaluation ticks the windows (capturing one cumulative sample of
/// every metric the objectives reference) and recomputes per-objective
/// multi-window burn rates. State transitions are logged, appended to a
/// bounded history, recorded in the global QueryLog (method "slo", the
/// objective's name in the tenant field), and exported as gauges:
///
///   mira.slo.<name>.state       0 ok / 1 warning / 2 breach
///   mira.slo.<name>.burn_fast   fast-window burn rate
///   mira.slo.<name>.burn_slow   slow-window burn rate
///
/// Lifecycle: construct → AddObjective()* → Start() → ... → Stop(). Tests
/// drive the state machine deterministically with Step(now_s) instead of
/// Start(), feeding a fake clock.
class SloEngine {
 public:
  struct Options {
    /// Evaluation (and window-tick) cadence of the background thread.
    double eval_interval_s = 1.0;
    /// Bounded transition history length.
    size_t max_history = 64;
    /// Record transitions in the global QueryLog.
    bool record_query_log = true;
    MetricRegistry* registry = nullptr;  ///< Default: the process-global.
  };

  /// `windows` must outlive the engine; the engine ticks it (callers must
  /// not also tick concurrently — Step/the background thread own cadence).
  SloEngine(WindowedMetrics* windows, Options options);
  ~SloEngine();

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Registers an objective and tracks its metrics in the windows. Call
  /// before Start().
  void AddObjective(SloObjective objective);

  /// Evaluates once, then starts the periodic evaluation task. No-op if
  /// already running.
  void Start();
  /// Stops and joins. Idempotent; the destructor calls it.
  void Stop();
  bool running() const;

  /// One synchronous tick + evaluation at `now_s` (monotonic seconds) — the
  /// deterministic seam the background loop also goes through.
  void Step(double now_s);

  /// Latest evaluation results, one per objective (objective order).
  std::vector<SloStatus> Statuses() const;
  /// Bounded transition history, oldest first.
  std::vector<SloTransition> History() const;
  uint64_t evaluations() const;

  const Options& options() const { return options_; }

 private:
  struct Tracked {
    SloObjective objective;
    SloState state = SloState::kOk;
    SloStatus last;
    Gauge* state_gauge = nullptr;
    Gauge* burn_fast_gauge = nullptr;
    Gauge* burn_slow_gauge = nullptr;
  };

  /// Burn rate of `objective` over one window; false when unmeasurable.
  bool WindowBurn(const SloObjective& objective, double window_s,
                  double* burn, double* bad_fraction, uint64_t* total) const;
  void Evaluate(double now_s) MIRA_REQUIRES(eval_mu_);

  WindowedMetrics* windows_;
  Options options_;

  /// Serializes Step/Evaluate (ticking + state transitions) against
  /// concurrent Step callers; Statuses/History take only state_mu_.
  Mutex eval_mu_;
  std::vector<Tracked> tracked_ MIRA_GUARDED_BY(eval_mu_);

  mutable Mutex state_mu_;
  std::vector<SloStatus> statuses_ MIRA_GUARDED_BY(state_mu_);
  std::deque<SloTransition> history_ MIRA_GUARDED_BY(state_mu_);
  uint64_t evaluations_ MIRA_GUARDED_BY(state_mu_) = 0;

  PeriodicTask task_;
};

}  // namespace mira::obs

#endif  // MIRA_OBS_SLO_H_
