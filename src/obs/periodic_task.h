#ifndef MIRA_OBS_PERIODIC_TASK_H_
#define MIRA_OBS_PERIODIC_TASK_H_

#include <chrono>
#include <functional>
#include <thread>

#include "common/sync.h"

namespace mira::obs {

/// One background thread that runs a body once per interval: the lifecycle
/// SloEngine and StuckQueryWatchdog share.
///
/// Start() spawns the thread; the body first runs one interval later, then
/// once per interval after it returns. Stop() wakes the thread at once (no
/// sleep on the shutdown path), joins it, and reports whether this call was
/// the one that stopped a running task — so an owner can run a final body
/// exactly once. Concurrent Stop() calls join the thread once, and none of
/// them returns while the body can still run. What runs before the first or
/// after the last interval is the owner's business, not the task's.
///
/// An exception thrown by the body is logged, and the next interval runs as
/// scheduled. Stop() must not be called from the body (it would join its own
/// thread).
class PeriodicTask {
 public:
  PeriodicTask() = default;
  ~PeriodicTask() { Stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Starts the thread. No-op while already running.
  void Start(std::chrono::duration<double> interval,
             std::function<void()> body);
  /// Idempotent; safe without Start(). True only for the call that stopped a
  /// running task.
  bool Stop();
  bool running() const;

 private:
  void Loop(std::chrono::steady_clock::duration interval,
            const std::function<void()>& body);

  mutable Mutex mu_;
  /// Wakes the sleeping loop on Stop(), and Start()/Stop() callers waiting
  /// for another Stop() to finish its join.
  CondVar wake_;
  bool stop_requested_ MIRA_GUARDED_BY(mu_) = false;
  bool joining_ MIRA_GUARDED_BY(mu_) = false;
  /// Joinable from Start() until a Stop() moves it out to join it.
  std::thread thread_ MIRA_GUARDED_BY(mu_);
};

}  // namespace mira::obs

#endif  // MIRA_OBS_PERIODIC_TASK_H_
