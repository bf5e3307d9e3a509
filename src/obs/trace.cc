#include "obs/trace.h"

#include <atomic>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

namespace mira::obs {

namespace {

std::atomic<uint32_t> g_sample_every{1};

}  // namespace

void SetTraceSampling(uint32_t sample_every) {
  g_sample_every.store(sample_every, std::memory_order_relaxed);
  // Mirror the knob into the registry so scrapes can tell what fraction of
  // queries the span detail describes.
  MetricRegistry::Global()
      .GetGauge("mira.obs.trace_sample_every")
      .Set(static_cast<double>(sample_every));
}

uint32_t GetTraceSampling() {
  return g_sample_every.load(std::memory_order_relaxed);
}

const SpanRecord* QueryTrace::Find(std::string_view name) const {
  for (const SpanRecord& span : spans_) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

int64_t QueryTrace::CounterValue(std::string_view span_name,
                                 std::string_view key) const {
  int64_t total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.name != span_name) continue;
    for (const SpanCounter& counter : span.counters) {
      if (counter.key == key) total += counter.value;
    }
  }
  return total;
}

double QueryTrace::SpanMillis(std::string_view name) const {
  double total = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) total += span.duration_ms;
  }
  return total;
}

double QueryTrace::TotalMillis() const {
  return spans_.empty() ? 0.0 : spans_.front().duration_ms;
}

std::string QueryTrace::ToString() const {
  std::string out;
  for (const SpanRecord& span : spans_) {
    std::string name = span.name;
    if (!span.label.empty()) name += "(" + span.label + ")";
    // Worker-thread spans (merged at a ParallelFor join) are tagged with the
    // thread they ran on; query-thread spans keep the seed format.
    if (span.tid != 0) name += StrFormat(" [t%02d]", span.tid);
    out.append(StrFormat("%*s%-32s %9.3f ms", span.depth * 2, "", name.c_str(),
                         span.duration_ms));
    for (const SpanCounter& counter : span.counters) {
      out.append(StrFormat("  %s=%lld", counter.key,
                           static_cast<long long>(counter.value)));
    }
    out.push_back('\n');
  }
  return out;
}

std::string QueryTrace::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out.append(i == 0 ? "\n  " : ",\n  ");
    out.append(StrFormat(
        "{\"name\": \"%s\", \"label\": \"%s\", \"parent\": %d, \"depth\": %d, "
        "\"tid\": %d, \"start_ms\": %.6f, \"duration_ms\": %.6f, "
        "\"counters\": {",
        span.name, JsonEscape(span.label).c_str(), span.parent, span.depth,
        span.tid, span.start_ms, span.duration_ms));
    for (size_t c = 0; c < span.counters.size(); ++c) {
      if (c > 0) out.append(", ");
      out.append(StrFormat("\"%s\": %lld", span.counters[c].key,
                           static_cast<long long>(span.counters[c].value)));
    }
    out.append("}}");
  }
  out.append(spans_.empty() ? "]\n" : "\n]\n");
  return out;
}

int32_t QueryTrace::StartSpan(const char* name, int32_t parent,
                              double start_ms) {
  SpanRecord record;
  record.name = name;
  record.parent = parent;
  record.depth = parent >= 0 ? spans_[static_cast<size_t>(parent)].depth + 1 : 0;
  record.start_ms = start_ms;
  spans_.push_back(std::move(record));
  return static_cast<int32_t>(spans_.size() - 1);
}

void QueryTrace::FinishSpan(int32_t index, double duration_ms) {
  spans_[static_cast<size_t>(index)].duration_ms = duration_ms;
}

void QueryTrace::AddCounter(int32_t index, const char* key, int64_t value) {
  spans_[static_cast<size_t>(index)].counters.push_back({key, value});
}

void QueryTrace::SetLabel(int32_t index, std::string_view label) {
  spans_[static_cast<size_t>(index)].label.assign(label);
}

#if MIRA_OBS_ENABLED

namespace {

/// One shared stream so "every Nth query" holds across threads.
bool SampleThisTrace() {
  const uint32_t every = GetTraceSampling();
  if (every == 0) return false;
  if (every == 1) return true;
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

}  // namespace

ScopedTrace::ScopedTrace(QueryTrace* sink) {
  saved_ = internal::g_trace_context;
  saved_tag_ = internal::g_query_tag;
  if (sink == nullptr) return;
  if (!SampleThisTrace()) {
    // The sampler dropped a trace the caller wanted; count it so the knob's
    // cost is visible (the query itself still runs, only span detail is lost).
    static Counter& sampled_out =
        MetricRegistry::Global().GetCounter("mira.obs.traces_sampled_out");
    sampled_out.Increment();
    return;
  }
  sink->Clear();
  internal::g_trace_context = {sink, -1, std::chrono::steady_clock::now()};
  static std::atomic<uint64_t> next_tag{0};
  query_tag_ = next_tag.fetch_add(1, std::memory_order_relaxed) + 1;
  internal::g_query_tag = query_tag_;
  armed_ = true;
}

ScopedTrace::~ScopedTrace() {
  internal::g_trace_context = saved_;
  internal::g_query_tag = saved_tag_;
}

TraceSpan::TraceSpan(const char* name) {
  internal::TraceContext& ctx = internal::g_trace_context;
  if (ctx.trace == nullptr) return;
  start_ = std::chrono::steady_clock::now();
  const double start_ms =
      std::chrono::duration<double, std::milli>(start_ - ctx.origin).count();
  index_ = ctx.trace->StartSpan(name, ctx.current, start_ms);
  saved_current_ = ctx.current;
  ctx.current = index_;
}

TraceSpan::~TraceSpan() { Finish(); }

void TraceSpan::Finish() {
  if (index_ < 0) return;
  internal::TraceContext& ctx = internal::g_trace_context;
  // The trace may have been detached mid-span (a ScopedTrace ending inside
  // this span's lifetime); finish only when still attached to the same trace.
  if (ctx.trace != nullptr) {
    const double duration_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start_)
                                   .count();
    ctx.trace->FinishSpan(index_, duration_ms);
    ctx.current = saved_current_;
  }
  index_ = -1;
}

void TraceSpan::AddCounter(const char* key, int64_t value) {
  if (index_ < 0) return;
  internal::TraceContext& ctx = internal::g_trace_context;
  if (ctx.trace == nullptr) return;
  ctx.trace->AddCounter(index_, key, value);
}

void TraceSpan::SetLabel(std::string_view label) {
  if (index_ < 0) return;
  internal::TraceContext& ctx = internal::g_trace_context;
  if (ctx.trace == nullptr) return;
  ctx.trace->SetLabel(index_, label);
}

#endif  // MIRA_OBS_ENABLED

}  // namespace mira::obs
