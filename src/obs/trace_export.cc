#include "obs/trace_export.h"

#include <fstream>
#include <set>

#include "common/string_util.h"

namespace mira::obs {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out.append(StrFormat("\\u%04x", c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

std::string MetadataEvent(const char* what, int pid, int32_t tid,
                          const std::string& name) {
  return StrFormat(
      "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
      "\"args\": {\"name\": \"%s\"}}",
      what, pid, tid, JsonEscape(name).c_str());
}

}  // namespace

int ChromeTraceWriter::AddQuery(const QueryTrace& trace,
                                const TraceAnnotations& annotations) {
  const int pid = next_pid_;
  if (trace.empty()) return pid;
  ++next_pid_;

  // Process + thread lanes. tid 0 is the query thread; every worker thread
  // that contributed spans (through a traced ParallelFor) gets a named lane.
  std::string process_name = StrFormat("query %d", pid);
  if (!annotations.method.empty()) process_name += " " + annotations.method;
  AppendEvent(MetadataEvent("process_name", pid, 0, process_name));
  std::set<int32_t> tids;
  for (const SpanRecord& span : trace.spans()) tids.insert(span.tid);
  for (const int32_t tid : tids) {
    AppendEvent(MetadataEvent(
        "thread_name", pid, tid,
        tid == 0 ? "query thread" : StrFormat("pool worker t%02d", tid)));
  }

  // One complete ("X") event per span. The span vector is per-thread
  // chronological (query-thread spans in start order; worker buffers are
  // spliced in per-thread collection order), which keeps timestamps
  // monotonic within each (pid, tid) lane — tools/obs_checks.py trace
  // asserts exactly that.
  bool root_annotated = false;
  for (const SpanRecord& span : trace.spans()) {
    std::string args = StrFormat("\"depth\": %d", span.depth);
    if (!span.label.empty()) {
      args += StrFormat(", \"label\": \"%s\"", JsonEscape(span.label).c_str());
    }
    for (const SpanCounter& counter : span.counters) {
      args += StrFormat(", \"%s\": %lld", counter.key,
                        static_cast<long long>(counter.value));
    }
    if (!root_annotated && span.parent < 0 && span.tid == 0) {
      root_annotated = true;
      if (!annotations.method.empty()) {
        args += StrFormat(", \"method\": \"%s\"",
                          JsonEscape(annotations.method).c_str());
      }
      args += StrFormat(
          ", \"degraded\": %s, \"partial\": %s, \"cancelled\": %s",
          annotations.degraded ? "true" : "false",
          annotations.partial ? "true" : "false",
          annotations.cancelled ? "true" : "false");
      if (annotations.budget_consumed >= 0) {
        args += StrFormat(", \"budget_consumed\": %.4f",
                          annotations.budget_consumed);
      }
    }
    AppendEvent(StrFormat(
        "{\"name\": \"%s\", \"cat\": \"mira\", \"ph\": \"X\", \"pid\": %d, "
        "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}",
        span.name, pid, span.tid, span.start_ms * 1000.0,
        span.duration_ms * 1000.0, args.c_str()));
  }
  return pid;
}

void ChromeTraceWriter::AppendEvent(const std::string& event) {
  events_.append(num_events_ == 0 ? "\n" : ",\n");
  events_.append(event);
  ++num_events_;
}

std::string ChromeTraceWriter::ToJson() const {
  std::string out = "[";
  out.append(events_);
  out.append(num_events_ == 0 ? "]\n" : "\n]\n");
  return out;
}

Status ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("trace export: cannot open " + path);
  out << ToJson();
  out.flush();
  if (!out) return Status::IoError("trace export: failed writing " + path);
  return Status::OK();
}

std::string ChromeTraceJson(const QueryTrace& trace,
                            const TraceAnnotations& annotations) {
  ChromeTraceWriter writer;
  writer.AddQuery(trace, annotations);
  return writer.ToJson();
}

}  // namespace mira::obs
