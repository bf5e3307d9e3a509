#ifndef MIRA_OBS_TRACE_H_
#define MIRA_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

// Compile-time observability toggle: building with -DMIRA_OBS_DISABLED (the
// CMake option MIRA_OBS=OFF) turns TraceSpan/ScopedTrace into empty inline
// no-ops. The QueryTrace container and the metrics layer stay compiled either
// way, so code that *reads* traces keeps building.
#if defined(MIRA_OBS_DISABLED)
#define MIRA_OBS_ENABLED 0
#else
#define MIRA_OBS_ENABLED 1
#endif

namespace mira::obs {

inline constexpr bool kObsEnabled = MIRA_OBS_ENABLED != 0;

/// One named integer attached to a span ("cells_scanned", "dist_comps", ...).
/// Keys are string literals with static storage — spans never copy them.
struct SpanCounter {
  const char* key;
  int64_t value;
};

/// One timed section of a query. Spans form a tree via parent indices into
/// QueryTrace::spans(); spans recorded on the query thread appear in start
/// order, worker-thread spans are spliced in at the ParallelFor join point.
struct SpanRecord {
  const char* name = "";
  std::string label;  ///< Optional dynamic detail (e.g. collection name).
  int32_t parent = -1;
  int32_t depth = 0;
  /// Thread the span ran on: 0 is the query thread, worker spans carry the
  /// worker's mira::LogThreadId(). Feeds the tid lane in Chrome trace export.
  int32_t tid = 0;
  double start_ms = 0.0;  ///< Offset from the trace's start.
  double duration_ms = 0.0;
  std::vector<SpanCounter> counters;
};

/// The span tree collected for a single query. Owned by the caller of
/// DiscoveryEngine::SearchTraced; populated through a thread-local context
/// installed by ScopedTrace, so instrumented callees need no extra
/// parameters. Not thread-safe by itself: one trace belongs to one query
/// thread. Parallel sections run their workers against private per-task
/// buffer traces that ParallelFor/ParallelForCancellable splice back in at
/// the join point via AdoptWorkerSpans (see obs/trace_propagation.h), so the
/// owning thread never shares the trace with a running worker.
class QueryTrace {
 public:
  const std::vector<SpanRecord>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }
  void Clear() { spans_.clear(); }

  /// Splices the spans of a worker-side buffer trace under `parent` (an index
  /// into this trace, or -1 for the root level), tagging them with the worker
  /// thread id. Buffer-internal parent indices and depths are remapped.
  /// Called at the ParallelFor join point, on the thread that owns this
  /// trace. Inline because mira_common uses it without linking mira_obs.
  void AdoptWorkerSpans(int32_t parent, int32_t tid,
                        const QueryTrace& worker) {
    const int32_t base = static_cast<int32_t>(spans_.size());
    const int32_t depth_shift =
        parent >= 0 ? spans_[static_cast<size_t>(parent)].depth + 1 : 0;
    spans_.reserve(spans_.size() + worker.spans_.size());
    for (const SpanRecord& span : worker.spans_) {
      SpanRecord copy = span;
      copy.parent = span.parent < 0 ? parent : base + span.parent;
      copy.depth += depth_shift;
      copy.tid = tid;
      spans_.push_back(std::move(copy));
    }
  }

  /// First span with this name, or nullptr.
  const SpanRecord* Find(std::string_view name) const;
  /// Sum of `key` over every span named `span_name` (0 when absent).
  int64_t CounterValue(std::string_view span_name, std::string_view key) const;
  /// Sum of durations over every span with this name.
  double SpanMillis(std::string_view name) const;
  /// Duration of the root (first) span; 0 for an empty trace.
  double TotalMillis() const;

  /// Indented human-readable tree with counters, one span per line.
  std::string ToString() const;
  /// JSON array of span objects (name/label/parent/depth/times/counters).
  std::string ToJson() const;

  /// Span bookkeeping used by TraceSpan — not meant for direct calls.
  int32_t StartSpan(const char* name, int32_t parent, double start_ms);
  void FinishSpan(int32_t index, double duration_ms);
  void AddCounter(int32_t index, const char* key, int64_t value);
  void SetLabel(int32_t index, std::string_view label);

 private:
  std::vector<SpanRecord> spans_;
};

/// Runtime sampling knob for ScopedTrace: collect every Nth installed trace
/// (1 = every query, the default; 0 = never arm). Applies process-wide.
/// The knob is itself observable: the current rate is mirrored into the
/// `mira.obs.trace_sample_every` gauge and every trace the sampler skips
/// bumps the `mira.obs.traces_sampled_out` counter, so dropped detail shows
/// up in /metricsz instead of silently vanishing.
void SetTraceSampling(uint32_t sample_every);
uint32_t GetTraceSampling();

namespace internal {

/// Thread-local collection state. `trace == nullptr` (the steady state) makes
/// every TraceSpan constructor a single TLS load and branch.
struct TraceContext {
  QueryTrace* trace = nullptr;
  int32_t current = -1;  ///< Innermost open span, -1 at the root.
  std::chrono::steady_clock::time_point origin{};
};

#if MIRA_OBS_ENABLED
inline thread_local TraceContext g_trace_context;

/// Id of the trace currently armed on this thread (assigned when ScopedTrace
/// arms; its own monotonic 1-based id space, distinct from QueryLog ids),
/// 0 when no trace is installed. Plain initial-exec TLS on purpose: the
/// SIGPROF sampling profiler (obs/cpu_profiler.h) reads the interrupted
/// thread's value from inside its signal handler to tag samples per query,
/// and a TLS load is the only async-signal-safe read available there.
inline thread_local uint64_t g_query_tag = 0;
inline uint64_t CurrentQueryTag() { return g_query_tag; }

/// Reads / overwrites the calling thread's collection state. Only the
/// cross-thread propagation scope (obs/trace_propagation.h) should touch
/// these; everything else goes through ScopedTrace / TraceSpan.
inline TraceContext CaptureContext() { return g_trace_context; }
inline void InstallContext(const TraceContext& ctx) { g_trace_context = ctx; }
#else
inline uint64_t CurrentQueryTag() { return 0; }
inline TraceContext CaptureContext() { return {}; }
inline void InstallContext(const TraceContext& /*ctx*/) {}
#endif

}  // namespace internal

#if MIRA_OBS_ENABLED

/// Arms span collection into `sink` for the current thread and scope (subject
/// to SetTraceSampling). Restores the previous context on destruction, so
/// traced sections nest safely. Arming also installs a process-unique query
/// tag into the thread (internal::CurrentQueryTag) so a concurrently running
/// CPU profile can attribute its samples to this query.
class ScopedTrace {
 public:
  explicit ScopedTrace(QueryTrace* sink);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  bool armed() const { return armed_; }
  /// The query tag installed while this trace is armed (0 when not armed).
  uint64_t query_tag() const { return query_tag_; }

 private:
  internal::TraceContext saved_;
  uint64_t saved_tag_ = 0;
  uint64_t query_tag_ = 0;
  bool armed_ = false;
};

/// RAII span: records itself into the thread's active QueryTrace, or does
/// nothing (one TLS load) when no trace is armed. Construct with a string
/// literal; the name is stored by pointer.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void AddCounter(const char* key, int64_t value);
  void SetLabel(std::string_view label);
  /// Ends the span now instead of at destruction (idempotent). Useful when a
  /// span should exclude tail work in the same scope.
  void Finish();
  bool active() const { return index_ >= 0; }

 private:
  int32_t index_ = -1;
  int32_t saved_current_ = -1;
  std::chrono::steady_clock::time_point start_{};
};

#else  // !MIRA_OBS_ENABLED

class ScopedTrace {
 public:
  explicit ScopedTrace(QueryTrace* /*sink*/) {}
  bool armed() const { return false; }
  uint64_t query_tag() const { return 0; }
};

class TraceSpan {
 public:
  explicit TraceSpan(const char* /*name*/) {}
  void AddCounter(const char* /*key*/, int64_t /*value*/) {}
  void SetLabel(std::string_view /*label*/) {}
  void Finish() {}
  bool active() const { return false; }
};

#endif  // MIRA_OBS_ENABLED

}  // namespace mira::obs

#endif  // MIRA_OBS_TRACE_H_
