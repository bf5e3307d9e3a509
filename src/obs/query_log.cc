#include "obs/query_log.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "obs/trace_export.h"

namespace mira::obs {

void QueryLogEntry::SetMethod(std::string_view name) {
  const size_t n = std::min(name.size(), sizeof(method) - 1);
  std::memcpy(method, name.data(), n);
  method[n] = '\0';
}

void QueryLogEntry::SetTenant(std::string_view name) {
  const size_t n = std::min(name.size(), sizeof(tenant) - 1);
  std::memcpy(tenant, name.data(), n);
  tenant[n] = '\0';
}

void QueryLogEntry::SetTopSpans(const QueryTrace& trace) {
  top_spans = {};
  const std::vector<SpanRecord>& spans = trace.spans();
  // Partial insertion sort into the three slots: the span inventory is a
  // couple dozen records, no need for a real sort.
  for (size_t i = 1; i < spans.size(); ++i) {  // skip the root span
    QueryLogTopSpan candidate{spans[i].name, spans[i].duration_ms};
    for (QueryLogTopSpan& slot : top_spans) {
      if (slot.name == nullptr || candidate.duration_ms > slot.duration_ms) {
        std::swap(slot, candidate);
      }
    }
  }
}

QueryLog::QueryLog(size_t capacity) : ring_(capacity) {}

QueryLog& QueryLog::Global() {
  static QueryLog log;
  return log;
}

uint64_t QueryLog::Record(QueryLogEntry entry) {
  return Publish(next_.fetch_add(1, std::memory_order_relaxed), entry);
}

uint64_t QueryLog::Record(QueryLogEntry entry, const QueryTrace& trace) {
  entry.traced = !trace.empty();
  if (entry.traced) entry.SetTopSpans(trace);
  const uint64_t id = Record(entry);
  if (entry.traced && IsSlow(entry.duration_ms)) {
    PromoteSlowTrace(id, entry.duration_ms, trace);
  }
  return id;
}

uint64_t QueryLog::Publish(uint64_t ticket, QueryLogEntry entry) {
  entry.id = ticket + 1;
  if (!ring_.Publish(ticket, entry)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry.id;
}

void QueryLog::SetSlowThresholdMs(double ms) {
  slow_threshold_ms_.store(ms, std::memory_order_relaxed);
}

double QueryLog::slow_threshold_ms() const {
  return slow_threshold_ms_.load(std::memory_order_relaxed);
}

bool QueryLog::IsSlow(double duration_ms) const {
  const double threshold = slow_threshold_ms();
  return threshold > 0.0 && duration_ms >= threshold;
}

void QueryLog::PromoteSlowTrace(uint64_t id, double duration_ms,
                                const QueryTrace& trace) {
  // Both renderings happen before taking the lock: promotion is already off
  // the per-query hot path, but the lock shouldn't serialize string building.
  std::string json = trace.ToJson();
  std::string chrome = ChromeTraceJson(trace);
  MutexLock lock(slow_mu_);
  slow_traces_.push_back({id, duration_ms, std::move(json), std::move(chrome)});
  // Keep the slowest kMaxSlowTraces: evicting the *fastest* resident outlier
  // (ties: the older one) means the worst queries survive any later flood of
  // merely-threshold-slow promotions.
  while (slow_traces_.size() > kMaxSlowTraces) {
    auto fastest = slow_traces_.begin();
    for (auto it = slow_traces_.begin(); it != slow_traces_.end(); ++it) {
      if (it->duration_ms < fastest->duration_ms) fastest = it;
    }
    slow_traces_.erase(fastest);
  }
}

std::vector<QueryLog::SlowTrace> QueryLog::SlowTraces() const {
  MutexLock lock(slow_mu_);
  return {slow_traces_.begin(), slow_traces_.end()};
}

std::vector<QueryLogEntry> QueryLog::Snapshot() const {
  // A reader descheduled for a whole ring lap finds every slot recycled by
  // the writers; it tries again while the log is advancing.
  constexpr int kAttempts = 4;
  std::vector<QueryLogEntry> out;
  QueryLogEntry entry;
  for (int attempt = 0; attempt < kAttempts && out.empty(); ++attempt) {
    const uint64_t next = next_.load(std::memory_order_acquire);
    const uint64_t begin = next > capacity() ? next - capacity() : 0;
    out.reserve(static_cast<size_t>(next - begin));
    for (uint64_t ticket = begin; ticket < next; ++ticket) {
      if (ring_.Read(ticket, &entry)) out.push_back(entry);
    }
    if (next_.load(std::memory_order_relaxed) == next) break;
  }
  return out;
}

std::string QueryLog::ExportJsonLines() const {
  std::string out;
  for (const QueryLogEntry& entry : Snapshot()) {
    out.append(StrFormat(
        "{\"id\": %llu, \"method\": \"%s\", \"tenant\": \"%s\", "
        "\"priority\": %d, \"ok\": %s, \"k\": %u, "
        "\"results\": %u, \"duration_ms\": %.4f, \"degraded\": %s, "
        "\"partial\": %s, \"traced\": %s, \"shed\": %s, \"evicted\": %s, "
        "\"preemptive\": %s",
        static_cast<unsigned long long>(entry.id),
        JsonEscape(entry.method).c_str(), JsonEscape(entry.tenant).c_str(),
        static_cast<int>(entry.priority), entry.ok ? "true" : "false",
        entry.k, entry.result_count,
        entry.duration_ms, entry.degraded ? "true" : "false",
        entry.partial ? "true" : "false", entry.traced ? "true" : "false",
        entry.shed ? "true" : "false", entry.evicted ? "true" : "false",
        entry.preemptive ? "true" : "false"));
    if (entry.budget_consumed >= 0) {
      out.append(StrFormat(", \"budget_consumed\": %.4f",
                           entry.budget_consumed));
    }
    out.append(", \"top_spans\": [");
    bool first = true;
    for (const QueryLogTopSpan& span : entry.top_spans) {
      if (span.name == nullptr) continue;
      if (!first) out.append(", ");
      first = false;
      out.append(StrFormat("{\"name\": \"%s\", \"ms\": %.4f}", span.name,
                           span.duration_ms));
    }
    out.append("]}\n");
  }
  return out;
}

void QueryLog::Clear() {
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  ring_.Clear();
  MutexLock lock(slow_mu_);
  slow_traces_.clear();
}

}  // namespace mira::obs
