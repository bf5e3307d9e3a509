#ifndef MIRA_COMMON_TIMER_H_
#define MIRA_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace mira {

/// Seconds on the monotonic clock, from an arbitrary fixed origin: the time
/// base of service dispatch stamps, SLO evaluations and watchdog scans.
inline double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mira

#endif  // MIRA_COMMON_TIMER_H_
