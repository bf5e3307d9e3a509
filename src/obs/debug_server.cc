#include "obs/debug_server.h"

#if MIRA_OBS_ENABLED

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/cpu_profiler.h"
#include "obs/metrics.h"
#include "obs/query_log.h"

namespace mira::obs {

namespace {

/// One parsed GET request: the path and its ?key=value parameters.
struct Request {
  std::string path;
  std::map<std::string, std::string> params;

  std::string Param(const std::string& key, std::string fallback = "") const {
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
};

struct Response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  /// Extra headers, one "Name: value" per entry (no CRLF).
  std::vector<std::string> extra_headers;
  std::string body;
};

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

std::string HtmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out.append("&amp;");
        break;
      case '<':
        out.append("&lt;");
        break;
      case '>':
        out.append("&gt;");
        break;
      case '"':
        out.append("&quot;");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Shared page chrome for the HTML endpoints; deliberately inline-styled so
/// pages render standalone (no assets to serve).
std::string HtmlPage(const std::string& title, const std::string& body) {
  return StrFormat(
      "<!DOCTYPE html><html><head><title>%s</title><style>"
      "body{font-family:monospace;margin:2em;}"
      "table{border-collapse:collapse;}"
      "td,th{border:1px solid #999;padding:2px 8px;text-align:left;}"
      "th{background:#eee;}"
      "h1{font-size:1.3em;}h2{font-size:1.1em;}"
      "</style></head><body><h1>%s</h1>%s"
      "<hr><p><a href=\"/\">debugz index</a></p></body></html>\n",
      title.c_str(), title.c_str(), body.c_str());
}

bool ParseRequestLine(const std::string& line, Request* out) {
  // "GET /path?k=v HTTP/1.1"
  const std::vector<std::string> parts = SplitWhitespace(line);
  if (parts.size() != 3 || parts[0] != "GET") return false;
  const std::string& target = parts[1];
  const size_t question = target.find('?');
  out->path = target.substr(0, question);
  if (question != std::string::npos) {
    for (const std::string& pair :
         Split(target.substr(question + 1), '&')) {
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        out->params[pair];
      } else {
        out->params[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
    }
  }
  return true;
}

/// Reads until the end of the request headers (we never accept bodies). The
/// socket carries a receive timeout, so a stalled client costs at most that.
bool ReadRequest(int fd, std::string* raw) {
  char buf[1024];
  while (raw->size() < 8192) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    raw->append(buf, static_cast<size_t>(n));
    if (raw->find("\r\n\r\n") != std::string::npos ||
        raw->find("\n\n") != std::string::npos) {
      return true;
    }
  }
  return false;
}

void WriteResponse(int fd, const Response& response) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              StatusText(response.status));
  out.append("Content-Type: " + response.content_type + "\r\n");
  out.append(StrFormat("Content-Length: %zu\r\n", response.body.size()));
  for (const std::string& header : response.extra_headers) {
    out.append(header + "\r\n");
  }
  out.append("Connection: close\r\n\r\n");
  out.append(response.body);
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;  // client went away; nothing useful to do
    sent += static_cast<size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Endpoint renderers. Each one reads only snapshot-style APIs (atomics,
// seqlock snapshots, lock-scoped copies) — never a lock shared with a query
// hot path.

Response RenderIndex(
    const std::vector<std::pair<std::string, std::string>>& extra_pages) {
  Response r;
  r.content_type = "text/html; charset=utf-8";
  std::string list =
      "<ul>"
      "<li><a href=\"/healthz\">/healthz</a> — liveness + degradation</li>"
      "<li><a href=\"/statusz\">/statusz</a> — build, uptime, status "
      "sections</li>"
      "<li><a href=\"/metricsz\">/metricsz</a> — Prometheus text</li>"
      "<li><a href=\"/varz\">/varz</a> — metrics JSON</li>"
      "<li><a href=\"/querylogz\">/querylogz</a> — recent queries "
      "(<a href=\"/querylogz?format=jsonl\">jsonl</a>)</li>"
      "<li><a href=\"/tracez\">/tracez</a> — promoted slow traces</li>"
      "<li><a href=\"/memz\">/memz</a> — memory breakdown</li>"
      "<li><a href=\"/profilez?seconds=1\">/profilez?seconds=1</a> — CPU "
      "profile (folded stacks)</li>";
  for (const auto& [path, description] : extra_pages) {
    list.append(StrFormat("<li><a href=\"%s\">%s</a> — %s</li>",
                          HtmlEscape(path).c_str(), HtmlEscape(path).c_str(),
                          HtmlEscape(description).c_str()));
  }
  list.append("</ul>");
  r.body = HtmlPage("mira debugz", list);
  return r;
}

Response RenderHealthz() {
  Response r;
  std::string body = "ok\n";
  body.append(StrFormat("uptime_ms: %.3f\n", LogUptimeMillis()));
  body.append("wall_clock: " + WallClockIso8601() + "\n");
  // Degradation summary: any non-zero counter whose name says the system
  // shed work. Zero lines after the header means fully healthy.
  body.append("degradation:\n");
  bool any = false;
  for (const auto& [name, value] : MetricRegistry::Global().CounterValues()) {
    if (value == 0) continue;
    const bool degradation_signal =
        name.find("degraded") != std::string::npos ||
        name.find("dropped") != std::string::npos ||
        name.find("partial") != std::string::npos ||
        name.find("cancelled") != std::string::npos ||
        name.find("deadline") != std::string::npos ||
        name.find("sampled_out") != std::string::npos ||
        name.find("shed") != std::string::npos ||
        name.find("evicted") != std::string::npos ||
        name.find("rejected") != std::string::npos;
    if (!degradation_signal) continue;
    any = true;
    body.append(StrFormat("  %s: %llu\n", name.c_str(),
                          static_cast<unsigned long long>(value)));
  }
  if (!any) body.append("  (none)\n");
  r.body = std::move(body);
  return r;
}

Response RenderStatusz(
    const std::vector<std::pair<std::string, std::function<std::string()>>>&
        sections) {
  Response r;
  r.content_type = "text/html; charset=utf-8";
  std::string body = "<h2>Process</h2><table>";
  body.append(StrFormat("<tr><th>uptime_ms</th><td>%.3f</td></tr>",
                        LogUptimeMillis()));
  body.append("<tr><th>wall_clock</th><td>" + WallClockIso8601() +
              "</td></tr>");
  body.append(StrFormat("<tr><th>pid</th><td>%d</td></tr>",
                        static_cast<int>(getpid())));
  body.append("<tr><th>compiler</th><td>" + HtmlEscape(__VERSION__) +
              "</td></tr>");
#ifdef NDEBUG
  body.append("<tr><th>build</th><td>release (NDEBUG)</td></tr>");
#else
  body.append("<tr><th>build</th><td>debug</td></tr>");
#endif
  body.append("<tr><th>obs</th><td>enabled</td></tr>");
  body.append(StrFormat("<tr><th>trace_sampling</th><td>every %u</td></tr>",
                        GetTraceSampling()));
  body.append(StrFormat("<tr><th>cpu_profile_active</th><td>%s</td></tr>",
                        CpuProfileActive() ? "yes" : "no"));
  body.append("</table>");

  // Thread-pool load (and anything else gauge-shaped that smells like
  // scheduling state) straight from the registry.
  std::string pool_rows;
  for (const auto& [name, value] : MetricRegistry::Global().GaugeValues()) {
    if (name.rfind("mira.pool.", 0) != 0) continue;
    pool_rows.append(StrFormat("<tr><td>%s</td><td>%.9g</td></tr>",
                               HtmlEscape(name).c_str(), value));
  }
  if (!pool_rows.empty()) {
    body.append("<h2>Thread pools</h2><table><tr><th>gauge</th>"
                "<th>value</th></tr>" +
                pool_rows + "</table>");
  }

  for (const auto& [title, render] : sections) {
    body.append("<h2>" + HtmlEscape(title) + "</h2><pre>" +
                HtmlEscape(render()) + "</pre>");
  }
  r.body = HtmlPage("mira statusz", body);
  return r;
}

Response RenderMetricsz() {
  Response r;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = MetricRegistry::Global().ExportText();
  return r;
}

Response RenderVarz() {
  Response r;
  r.content_type = "application/json";
  r.body = MetricRegistry::Global().ExportJson();
  return r;
}

Response RenderQuerylogz(const Request& request) {
  Response r;
  if (request.Param("format") == "jsonl") {
    r.content_type = "application/x-ndjson";
    r.body = QueryLog::Global().ExportJsonLines();
    return r;
  }
  const QueryLog& log = QueryLog::Global();
  const std::vector<QueryLogEntry> entries = log.Snapshot();
  std::string body = StrFormat(
      "<p>%llu recorded, %llu dropped, %zu resident "
      "(<a href=\"/querylogz?format=jsonl\">jsonl</a>)</p>",
      static_cast<unsigned long long>(log.total_recorded()),
      static_cast<unsigned long long>(log.dropped()), entries.size());
  body.append(
      "<table><tr><th>id</th><th>method</th><th>ok</th><th>k</th>"
      "<th>results</th><th>ms</th><th>flags</th><th>top spans</th></tr>");
  // Newest first: the page answers "what just happened".
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const QueryLogEntry& e = *it;
    std::string flags;
    if (e.degraded) flags.append("degraded ");
    if (e.partial) flags.append("partial ");
    if (e.traced) flags.append("traced ");
    if (e.shed) flags.append("shed ");
    if (e.evicted) flags.append("evicted ");
    if (e.preemptive) flags.append("preemptive ");
    std::string spans;
    for (const QueryLogTopSpan& span : e.top_spans) {
      if (span.name == nullptr) continue;
      spans.append(StrFormat("%s=%.3fms ", span.name, span.duration_ms));
    }
    body.append(StrFormat(
        "<tr><td>%llu</td><td>%s</td><td>%s</td><td>%u</td><td>%u</td>"
        "<td>%.3f</td><td>%s</td><td>%s</td></tr>",
        static_cast<unsigned long long>(e.id), HtmlEscape(e.method).c_str(),
        e.ok ? "ok" : "ERR", e.k, e.result_count, e.duration_ms,
        HtmlEscape(flags).c_str(), HtmlEscape(spans).c_str()));
  }
  body.append("</table>");
  r.content_type = "text/html; charset=utf-8";
  r.body = HtmlPage("mira querylogz", body);
  return r;
}

Response RenderTracez(const Request& request) {
  Response r;
  const std::vector<QueryLog::SlowTrace> traces =
      QueryLog::Global().SlowTraces();
  const std::string format = request.Param("format");
  if (format == "chrome") {
    // Download one promoted trace as a complete Chrome-trace document
    // (chrome://tracing / ui.perfetto.dev). Default: the newest.
    const std::string id_text = request.Param("id");
    const QueryLog::SlowTrace* chosen =
        traces.empty() ? nullptr : &traces.back();
    if (!id_text.empty()) {
      chosen = nullptr;
      for (const QueryLog::SlowTrace& trace : traces) {
        if (std::to_string(trace.id) == id_text) chosen = &trace;
      }
    }
    if (chosen == nullptr) {
      r.status = 404;
      r.body = "no promoted trace with that id\n";
      return r;
    }
    r.content_type = "application/json";
    r.extra_headers.push_back(StrFormat(
        "Content-Disposition: attachment; filename=\"trace_query_%llu.json\"",
        static_cast<unsigned long long>(chosen->id)));
    r.body = chosen->chrome_json;
    return r;
  }
  std::string body = StrFormat(
      "<p>%zu promoted slow trace(s) (threshold %.3f ms; newest last)</p>",
      traces.size(), QueryLog::Global().slow_threshold_ms());
  body.append("<table><tr><th>query id</th><th>duration ms</th>"
              "<th>download</th></tr>");
  for (const QueryLog::SlowTrace& trace : traces) {
    body.append(StrFormat(
        "<tr><td>%llu</td><td>%.3f</td>"
        "<td><a href=\"/tracez?id=%llu&amp;format=chrome\">chrome json</a>"
        "</td></tr>",
        static_cast<unsigned long long>(trace.id), trace.duration_ms,
        static_cast<unsigned long long>(trace.id)));
  }
  body.append("</table>");
  r.content_type = "text/html; charset=utf-8";
  r.body = HtmlPage("mira tracez", body);
  return r;
}

Response RenderMemz() {
  Response r;
  std::string body = "resident bytes by component (mira.mem.* gauges)\n\n";
  double total = 0.0;
  bool any = false;
  for (const auto& [name, value] : MetricRegistry::Global().GaugeValues()) {
    if (name.rfind("mira.mem.", 0) != 0) continue;
    any = true;
    if (name == "mira.mem.total_bytes") {
      total = value;
      continue;
    }
    body.append(StrFormat("%-48s %16.0f\n", name.c_str(), value));
  }
  if (!any) {
    body.append("(no mira.mem.* gauges published — register a collector "
                "that calls PublishResourceMetrics)\n");
  } else if (total > 0.0) {
    body.append(StrFormat("%-48s %16.0f\n", "mira.mem.total_bytes", total));
  }
  r.body = std::move(body);
  return r;
}

Response RenderProfilez(const Request& request) {
  Response r;
  CpuProfileOptions options;
  const std::string seconds = request.Param("seconds", "1");
  const std::string hz = request.Param("hz", "99");
  if (!LooksNumeric(seconds) || !LooksNumeric(hz)) {
    r.status = 400;
    r.body = "profilez: seconds and hz must be numeric\n";
    return r;
  }
  options.duration_seconds = std::clamp(std::atof(seconds.c_str()), 0.1, 30.0);
  options.frequency_hz = std::clamp(std::atoi(hz.c_str()), 1, 1000);
  CpuProfile profile;
  const Status status = CollectCpuProfile(options, &profile);
  if (!status.ok()) {
    r.status = status.code() == StatusCode::kUnavailable ? 503 : 500;
    r.body = status.ToString() + "\n";
    return r;
  }
  r.extra_headers.push_back(StrFormat(
      "X-Profile-Samples: %llu",
      static_cast<unsigned long long>(profile.samples_captured)));
  r.extra_headers.push_back(StrFormat(
      "X-Profile-Dropped: %llu",
      static_cast<unsigned long long>(profile.samples_dropped)));
  r.extra_headers.push_back(
      StrFormat("X-Profile-Hz: %d", profile.frequency_hz));
  // Pure folded-stacks body: pipe straight into flamegraph.pl / speedscope.
  r.body = std::move(profile.folded);
  return r;
}

Response RenderNotFound(const std::string& path) {
  Response r;
  r.status = 404;
  r.body = "no such debugz page: " + path +
           "\nknown: / /healthz /statusz /metricsz /varz /querylogz "
           "/tracez /memz /profilez\n";
  return r;
}

}  // namespace

DebugServer::~DebugServer() { Stop(); }

Status DebugServer::Start(const DebugServerOptions& options) {
  if (running()) {
    return Status::FailedPrecondition("debug server already running");
  }
  if (options.num_threads < 1 || options.num_threads > 64) {
    return Status::InvalidArgument(
        "debug server: num_threads must be in [1, 64]");
  }

  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("debug server: socket() failed");
  const int enable = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("debug server: bad bind address " +
                                   options.bind_address);
  }
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::IoError(StrFormat(
        "debug server: bind(%s:%u) failed: %s", options.bind_address.c_str(),
        options.port, std::strerror(errno)));
  }
  if (listen(fd, 16) != 0) {
    close(fd);
    return Status::IoError("debug server: listen() failed");
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                  &bound_len) != 0) {
    close(fd);
    return Status::IoError("debug server: getsockname() failed");
  }

  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  threads_.reserve(static_cast<size_t>(options.num_threads));
  for (int i = 0; i < options.num_threads; ++i) {
    threads_.emplace_back([this] { ServeLoop(); });
  }
  MIRA_LOG_INFO() << "debugz serving on http://" << options.bind_address << ":"
                  << port_ << "/ (" << options.num_threads << " threads)";
  return Status::OK();
}

void DebugServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() makes every blocked accept() return immediately; the fd stays
  // open until the threads have joined so its number cannot be reused under
  // a still-running loop.
  shutdown(listen_fd_, SHUT_RDWR);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void DebugServer::AddCollector(std::function<void()> collector) {
  MutexLock lock(mu_);
  collectors_.push_back(std::move(collector));
}

void DebugServer::AddStatusSection(std::string title,
                                   std::function<std::string()> render) {
  MutexLock lock(mu_);
  sections_.emplace_back(std::move(title), std::move(render));
}

void DebugServer::AddPage(std::string path, std::string description,
                          std::function<std::string()> render) {
  MutexLock lock(mu_);
  for (Page& page : pages_) {
    if (page.path == path) {
      page.description = std::move(description);
      page.render = std::move(render);
      return;
    }
  }
  pages_.push_back(
      Page{std::move(path), std::move(description), std::move(render)});
}

void DebugServer::ServeLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int client = accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (!running_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listening socket is gone
    }
    // Bounded patience per connection: a stalled peer blocks one handler
    // thread for at most these windows, never the server.
    struct timeval recv_timeout{5, 0};
    setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
    struct timeval send_timeout{10, 0};
    setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));

    std::string raw;
    Request request;
    Response response;
    if (!ReadRequest(client, &raw)) {
      close(client);
      continue;
    }
    const size_t line_end = raw.find_first_of("\r\n");
    if (!ParseRequestLine(raw.substr(0, line_end), &request)) {
      response.status = 405;
      response.body = "only HTTP GET is served here\n";
    } else {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      static Counter& requests =
          MetricRegistry::Global().GetCounter("mira.debugz.requests");
      requests.Increment();

      // Refresh registered point-in-time gauges for the pages that render
      // registry state. Copy the hooks out so rendering never holds mu_.
      if (request.path == "/metricsz" || request.path == "/varz" ||
          request.path == "/memz" || request.path == "/statusz" ||
          request.path == "/healthz") {
        std::vector<std::function<void()>> collectors;
        {
          MutexLock lock(mu_);
          collectors = collectors_;
        }
        for (const auto& collector : collectors) collector();
      }

      if (request.path == "/" || request.path == "/index.html") {
        std::vector<std::pair<std::string, std::string>> extra_pages;
        {
          MutexLock lock(mu_);
          for (const Page& page : pages_) {
            extra_pages.emplace_back(page.path, page.description);
          }
        }
        response = RenderIndex(extra_pages);
      } else if (request.path == "/healthz") {
        response = RenderHealthz();
      } else if (request.path == "/statusz") {
        std::vector<std::pair<std::string, std::function<std::string()>>>
            sections;
        {
          MutexLock lock(mu_);
          sections = sections_;
        }
        response = RenderStatusz(sections);
      } else if (request.path == "/metricsz") {
        response = RenderMetricsz();
      } else if (request.path == "/varz") {
        response = RenderVarz();
      } else if (request.path == "/querylogz") {
        response = RenderQuerylogz(request);
      } else if (request.path == "/tracez") {
        response = RenderTracez(request);
      } else if (request.path == "/memz") {
        response = RenderMemz();
      } else if (request.path == "/profilez") {
        response = RenderProfilez(request);
      } else {
        // Registered extra pages (AddPage) before 404. Copy the renderer out
        // so rendering never holds mu_.
        std::function<std::string()> page_render;
        {
          MutexLock lock(mu_);
          for (const Page& page : pages_) {
            if (page.path == request.path) {
              page_render = page.render;
              break;
            }
          }
        }
        if (page_render) {
          response.body = page_render();
        } else {
          response = RenderNotFound(request.path);
        }
      }
    }
    WriteResponse(client, response);
    close(client);
  }
}

}  // namespace mira::obs

#endif  // MIRA_OBS_ENABLED
