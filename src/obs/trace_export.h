#ifndef MIRA_OBS_TRACE_EXPORT_H_
#define MIRA_OBS_TRACE_EXPORT_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/trace.h"

namespace mira::obs {

/// Per-query annotations carried into the exported trace as args on the root
/// span (mirrors Ranking::degraded/partial and the deadline bookkeeping that
/// docs/ROBUSTNESS.md specifies).
struct TraceAnnotations {
  std::string method;           ///< "ExS" / "ANNS" / "CTS" (may be empty).
  bool degraded = false;        ///< Reduced-effort answer under a deadline.
  bool partial = false;         ///< Corpus not fully scanned.
  bool cancelled = false;       ///< Query was cancelled mid-flight.
  double budget_consumed = -1;  ///< Deadline fraction spent, <0 = unbounded.
};

/// Serializes QueryTraces into the Chrome/Perfetto `trace_event` JSON format
/// (the "JSON Array Format"): load the written file in chrome://tracing or
/// ui.perfetto.dev. Each AddQuery call becomes one process row (pid = query
/// ordinal); inside it, tid 0 is the query thread and every worker thread
/// that contributed spans through a traced ParallelFor gets its own lane.
/// Span counters and labels become event args; TraceAnnotations become args
/// on the query's root span.
///
/// Not thread-safe; build on one thread, then write.
class ChromeTraceWriter {
 public:
  /// Appends one query's span tree. Empty traces are skipped (returns the
  /// pid that was or would have been assigned).
  int AddQuery(const QueryTrace& trace, const TraceAnnotations& annotations);
  int AddQuery(const QueryTrace& trace) { return AddQuery(trace, {}); }

  /// The accumulated JSON document (a well-formed trace_event array, valid
  /// even when empty).
  std::string ToJson() const;
  [[nodiscard]] Status WriteFile(const std::string& path) const;

  size_t num_queries() const { return static_cast<size_t>(next_pid_); }
  size_t num_events() const { return num_events_; }

 private:
  void AppendEvent(const std::string& event);

  std::string events_;  ///< Comma-joined serialized events.
  int next_pid_ = 0;
  size_t num_events_ = 0;
};

/// `text` as the inside of a JSON string literal: quotes, backslashes and
/// control characters escaped, so a malformed byte in a name or label never
/// produces an unloadable document.
std::string JsonEscape(std::string_view text);

/// One-shot convenience: a single trace as a complete Chrome trace document.
std::string ChromeTraceJson(const QueryTrace& trace,
                            const TraceAnnotations& annotations = {});

}  // namespace mira::obs

#endif  // MIRA_OBS_TRACE_EXPORT_H_
