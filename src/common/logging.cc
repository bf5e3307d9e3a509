#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>

namespace mira {

namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

// Guards the sink pointer AND serializes Write() calls through it: once
// SetLogSink returns, no thread can still be inside the previous sink, so
// the caller may destroy it immediately. The previous atomic-pointer scheme
// had a use-after-free window between the load and the Write() call.
Mutex g_sink_mu;
LogSink* g_log_sink MIRA_GUARDED_BY(g_sink_mu) = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

std::chrono::steady_clock::time_point LogOrigin() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return origin;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

LogSink* SetLogSink(LogSink* sink) {
  MutexLock lock(g_sink_mu);
  LogSink* previous = g_log_sink;
  g_log_sink = sink;
  return previous;
}

void CapturingLogSink::Write(LogLevel /*level*/, const std::string& line) {
  MutexLock lock(mu_);
  lines_.push_back(line);
}

std::vector<std::string> CapturingLogSink::lines() const {
  MutexLock lock(mu_);
  return lines_;
}

bool CapturingLogSink::Contains(std::string_view needle) const {
  MutexLock lock(mu_);
  for (const std::string& line : lines_) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

void CapturingLogSink::Clear() {
  MutexLock lock(mu_);
  lines_.clear();
}

int LogThreadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

double LogUptimeMillis() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - LogOrigin())
      .count();
}

std::string WallClockIso8601() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  // Sized for any int fields, so -Wformat-truncation has nothing to flag.
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(millis));
  return buf;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level),
      enabled_(static_cast<int>(level) >=
               g_log_level.load(std::memory_order_relaxed)) {
  if (!enabled_) return;
  // Prefix: ISO-8601 UTC wall clock (correlates with external systems and
  // /metricsz scrapes), monotonic millis since logging init (orders lines
  // even across wall-clock adjustments), and a small sequential thread id so
  // interleaved multi-threaded output stays attributable.
  char prefix[160];
  if (level_ >= LogLevel::kWarning) {
    std::snprintf(prefix, sizeof(prefix), "[%s %11.3f t%02d %s %s:%d] ",
                  WallClockIso8601().c_str(), LogUptimeMillis(), LogThreadId(),
                  LevelName(level), file, line);
  } else {
    std::snprintf(prefix, sizeof(prefix), "[%s %11.3f t%02d %s] ",
                  WallClockIso8601().c_str(), LogUptimeMillis(), LogThreadId(),
                  LevelName(level));
  }
  stream_ << prefix;
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::string line = stream_.str();
    // Write under the sink lock so a concurrent SetLogSink cannot pull the
    // sink out from under us mid-call. Sinks therefore must not log from
    // inside Write() (self-deadlock); see the LogSink contract.
    MutexLock lock(g_sink_mu);
    if (g_log_sink != nullptr) {
      g_log_sink->Write(level_, line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace mira
