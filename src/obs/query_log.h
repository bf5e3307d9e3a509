#ifndef MIRA_OBS_QUERY_LOG_H_
#define MIRA_OBS_QUERY_LOG_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "obs/seq_ring.h"
#include "obs/trace.h"

namespace mira::obs {

/// One of the up-to-three largest spans summarized on a query-log entry.
/// `name` points at the span's static string literal (never owned).
struct QueryLogTopSpan {
  const char* name = nullptr;
  double duration_ms = 0.0;
};

/// One compact, fixed-size record per query. Trivially copyable on purpose:
/// entries are serialized word-by-word into the lock-free ring, so they must
/// carry no owning pointers — the method is an inline char array and span
/// names are static literals.
struct QueryLogEntry {
  uint64_t id = 0;  ///< Assigned by QueryLog::Record (1-based, monotonic).
  char method[15] = {};  ///< NUL-terminated, truncated to fit.
  bool ok = true;        ///< False when Search returned a non-OK status.
  uint32_t k = 0;
  uint32_t result_count = 0;
  double duration_ms = 0.0;
  bool degraded = false;
  bool partial = false;
  bool traced = false;  ///< A full span tree was collected for this query.
  /// Service-layer outcome flags (see src/service/discovery_service.h):
  /// `shed` — rejected at admission (quota or queue-full), never ran;
  /// `evicted` — deadline expired (or cancelled) while queued, never ran;
  /// `preemptive` — ran, but under a tightened budget imposed by queue
  /// pressure (degraded-before-deadline).
  bool shed = false;
  bool evicted = false;
  bool preemptive = false;
  /// Tenant the request was attributed to at admission (service-layer
  /// entries; engine-level entries leave it empty). NUL-terminated,
  /// truncated to fit — matches the bounded tenant metric slicing.
  char tenant[15] = {};
  /// Dispatch priority of the admitting tenant (service-layer entries).
  int8_t priority = 0;
  /// Fraction of the deadline budget spent when the query finished
  /// (1 - Deadline::FractionRemaining()); negative when no deadline was set.
  double budget_consumed = -1.0;
  /// Largest spans by duration, excluding the root; unused slots have a
  /// nullptr name.
  std::array<QueryLogTopSpan, 3> top_spans{};

  void SetMethod(std::string_view name);
  void SetTenant(std::string_view name);
  /// Fills top_spans from the trace (largest non-root spans first).
  void SetTopSpans(const QueryTrace& trace);
};

/// Lock-free ring buffer of the most recent `capacity` query-log entries,
/// plus a small mutex-guarded side store of promoted slow-query traces.
///
/// Writers (`Record`) never block and never allocate: one fetch_add draws a
/// ticket and `internal::SeqRing::Publish` claims its slot with one CAS and
/// stores the entry as relaxed atomic words under the slot's seqlock, so the
/// hot path stays wait-free-ish and TSan-clean. If a writer stalls for a
/// full ring lap, colliding entries are dropped (counted in `dropped()`)
/// rather than blocking the query path. Readers (`Snapshot`/
/// `ExportJsonLines`) skip slots that are mid-write or recycled during the
/// read — a consistency check, not a lock.
///
/// Slow-query promotion: when `slow_threshold_ms` is set (> 0), callers that
/// ran a traced query check `IsSlow(duration)` and hand the full trace to
/// `PromoteSlowTrace`, which keeps the kMaxSlowTraces *slowest* outliers as
/// JSON.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 1024;
  static constexpr size_t kMaxSlowTraces = 16;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit QueryLog(size_t capacity = kDefaultCapacity);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Process-wide log the engine records into.
  static QueryLog& Global();

  /// Stores the entry (assigning and returning its id). Lock-free.
  uint64_t Record(QueryLogEntry entry);

  /// Slow-query threshold; <= 0 (the default) disables promotion.
  void SetSlowThresholdMs(double ms);
  double slow_threshold_ms() const;
  bool IsSlow(double duration_ms) const;

  /// Keeps the full trace of a slow query (bounded: beyond kMaxSlowTraces
  /// promotions, the *fastest* resident outlier is evicted, so the store
  /// converges on the worst offenders — and a histogram exemplar pinning the
  /// max-latency query keeps resolving here no matter how many later slow
  /// queries flood in).
  void PromoteSlowTrace(uint64_t id, double duration_ms,
                        const QueryTrace& trace);

  struct SlowTrace {
    uint64_t id = 0;
    double duration_ms = 0.0;
    std::string trace_json;  ///< QueryTrace::ToJson() of the outlier.
    /// Complete Chrome-trace document (ChromeTraceJson) built once at
    /// promotion time, so /tracez downloads need no re-rendering.
    std::string chrome_json;
  };
  std::vector<SlowTrace> SlowTraces() const;

  /// Consistent entries still resident in the ring, oldest first.
  std::vector<QueryLogEntry> Snapshot() const;

  /// JSON-lines export: one compact JSON object per entry, oldest first.
  std::string ExportJsonLines() const;

  size_t capacity() const { return ring_.capacity(); }
  /// Total entries ever recorded (ids run 1..total_recorded()).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Entries lost to writer collisions (a writer stalled a full ring lap).
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Resets ids, entries, and promoted traces. Test isolation only — must
  /// not run concurrently with writers.
  void Clear();

 private:
  friend class QueryLogTestPeer;  // replays a stalled writer's ticket

  /// Record after the ticket draw: stores `entry` as `ticket`, or counts it
  /// dropped when the slot is busy or already newer.
  uint64_t Publish(uint64_t ticket, QueryLogEntry entry);

  internal::SeqRing<QueryLogEntry> ring_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<double> slow_threshold_ms_{0.0};

  mutable Mutex slow_mu_;
  std::deque<SlowTrace> slow_traces_ MIRA_GUARDED_BY(slow_mu_);
};

}  // namespace mira::obs

#endif  // MIRA_OBS_QUERY_LOG_H_
