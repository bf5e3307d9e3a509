#include "obs/periodic_task.h"

#include <exception>
#include <utility>

#include "common/logging.h"

namespace mira::obs {

void PeriodicTask::Start(std::chrono::duration<double> interval,
                         std::function<void()> body) {
  MutexLock lock(mu_);
  // A thread still being joined may not yet have seen its stop request;
  // resetting the flag under it would keep it running.
  while (joining_) wake_.Wait(lock);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  thread_ = std::thread(
      [this, step = std::chrono::duration_cast<
                 std::chrono::steady_clock::duration>(interval),
       body = std::move(body)] { Loop(step, body); });
}

bool PeriodicTask::Stop() {
  std::thread worker;
  {
    MutexLock lock(mu_);
    if (!thread_.joinable()) {
      // Another Stop() may be joining: wait for it, so that no Stop()
      // returns while the body can still run.
      while (joining_) wake_.Wait(lock);
      return false;
    }
    stop_requested_ = true;
    joining_ = true;
    worker = std::move(thread_);
  }
  // Join outside the lock: the loop takes mu_ on its way out.
  wake_.NotifyAll();
  worker.join();
  {
    MutexLock lock(mu_);
    joining_ = false;
  }
  wake_.NotifyAll();
  return true;
}

bool PeriodicTask::running() const {
  MutexLock lock(mu_);
  return thread_.joinable();
}

void PeriodicTask::Loop(std::chrono::steady_clock::duration interval,
                        const std::function<void()>& body) {
  for (;;) {
    {
      MutexLock lock(mu_);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      // Explicit wait loop (not the predicate overload) so the analysis sees
      // stop_requested_ read under mu_; a timeout ends this interval, any
      // other wake-up re-checks the flag.
      while (!stop_requested_) {
        if (wake_.WaitUntil(lock, deadline)) break;
      }
      if (stop_requested_) return;
    }
    // An exception escaping the thread would end the process.
    try {
      body();
    } catch (const std::exception& e) {
      MIRA_LOG_ERROR() << "periodic task: " << e.what();
    }
  }
}

}  // namespace mira::obs
