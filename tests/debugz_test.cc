// Tests for the live-introspection layer: the embedded debugz HTTP server
// (obs/debug_server.h) scraped over real loopback sockets, the export paths
// it serves (/varz JSON, /querylogz JSON-lines, /tracez Chrome downloads)
// under concurrent metric/query-log writers, and the SIGPROF sampling CPU
// profiler (obs/cpu_profiler.h).
//
// DebugServerStressTest is part of the TSan CI job (.github/workflows/ci.yml)
// — it races ring writers against serving threads on purpose. CpuProfilerTest
// is deliberately NOT: TSan intercepts signal delivery and forbids several
// calls in SIGPROF context that the real profiler makes legitimately.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/cpu_profiler.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace mira::obs {
namespace {

struct HttpResponse {
  int status = 0;
  std::string headers;  // Raw header block, without the body.
  std::string body;
};

// Minimal blocking HTTP/1.1 GET against 127.0.0.1:`port`. Returns status 0 on
// any socket failure so expectations read as "request worked AND ...".
// Unused when -DMIRA_OBS=OFF compiles the server tests out.
[[maybe_unused]] HttpResponse HttpGet(uint16_t port,
                                      const std::string& path) {
  HttpResponse response;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return response;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      close(fd);
      return response;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) raw.append(buf, static_cast<size_t>(n));
  close(fd);
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return response;
  response.headers = raw.substr(0, split);
  response.body = raw.substr(split + 4);
  // "HTTP/1.1 200 OK" -> 200.
  if (response.headers.size() > 9) {
    response.status = std::atoi(response.headers.c_str() + 9);
  }
  return response;
}

#if MIRA_OBS_ENABLED

class DebugServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.Start({}).ok());
    ASSERT_NE(server_.port(), 0);
  }
  void TearDown() override { server_.Stop(); }

  DebugServer server_;
};

TEST_F(DebugServerTest, StartStopLifecycle) {
  EXPECT_TRUE(server_.running());
  const uint16_t port = server_.port();
  // A second Start on a running server must fail without disturbing it.
  EXPECT_FALSE(server_.Start({}).ok());
  EXPECT_TRUE(server_.running());
  EXPECT_EQ(server_.port(), port);
  server_.Stop();
  EXPECT_FALSE(server_.running());
  server_.Stop();  // Idempotent.
}

TEST_F(DebugServerTest, IndexLinksEveryEndpoint) {
  HttpResponse response = HttpGet(server_.port(), "/");
  ASSERT_EQ(response.status, 200);
  for (const char* endpoint :
       {"healthz", "statusz", "metricsz", "varz", "querylogz", "tracez",
        "memz", "profilez"}) {
    EXPECT_NE(response.body.find(endpoint), std::string::npos) << endpoint;
  }
}

TEST_F(DebugServerTest, HealthzReportsOk) {
  HttpResponse response = HttpGet(server_.port(), "/healthz");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body.rfind("ok\n", 0), 0u);
  EXPECT_NE(response.body.find("uptime_ms:"), std::string::npos);
  EXPECT_NE(response.body.find("wall_clock:"), std::string::npos);
}

TEST_F(DebugServerTest, UnknownPathIs404) {
  EXPECT_EQ(HttpGet(server_.port(), "/nope").status, 404);
}

TEST_F(DebugServerTest, AddPageRegistersServesAndLists) {
  server_.AddPage("/servicez", "service queue and shed counters", [] {
    return std::string("service\n  queue_depth: 0 / 64\n");
  });
  HttpResponse page = HttpGet(server_.port(), "/servicez");
  ASSERT_EQ(page.status, 200);
  EXPECT_NE(page.body.find("queue_depth"), std::string::npos);
  // The index lists the registered page alongside the built-ins.
  HttpResponse index = HttpGet(server_.port(), "/");
  ASSERT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("servicez"), std::string::npos);
  EXPECT_NE(index.body.find("shed counters"), std::string::npos);
  // Re-registering the same path replaces the renderer in place.
  server_.AddPage("/servicez", "replacement",
                  [] { return std::string("replaced body"); });
  HttpResponse replaced = HttpGet(server_.port(), "/servicez");
  ASSERT_EQ(replaced.status, 200);
  EXPECT_NE(replaced.body.find("replaced body"), std::string::npos);
}

TEST_F(DebugServerTest, VarzServesRegisteredMetricsAsJson) {
  MetricRegistry::Global().GetCounter("mira.test.debugz_varz_probe").Add(7);
  HttpResponse response = HttpGet(server_.port(), "/varz");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.headers.find("application/json"), std::string::npos);
  ASSERT_FALSE(response.body.empty());
  EXPECT_EQ(response.body.front(), '{');
  EXPECT_NE(response.body.find("\"mira.test.debugz_varz_probe\": 7"),
            std::string::npos);
}

TEST_F(DebugServerTest, MetricszSpeaksPrometheusText) {
  MetricRegistry::Global().GetCounter("mira.test.debugz_prom_probe").Increment();
  HttpResponse response = HttpGet(server_.port(), "/metricsz");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE mira_test_debugz_prom_probe counter"),
            std::string::npos);
}

TEST_F(DebugServerTest, QuerylogzJsonlMatchesExport) {
  QueryLog& log = QueryLog::Global();
  log.Clear();
  for (int i = 0; i < 3; ++i) {
    QueryLogEntry entry;
    entry.SetMethod("cts");
    entry.k = 10;
    entry.result_count = static_cast<uint32_t>(i);
    entry.duration_ms = 1.5 * (i + 1);
    log.Record(entry);
  }
  HttpResponse response = HttpGet(server_.port(), "/querylogz?format=jsonl");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.headers.find("application/x-ndjson"), std::string::npos);
  EXPECT_EQ(response.body, log.ExportJsonLines());
  // Shape: one JSON object per line.
  size_t lines = 0, pos = 0, next;
  while ((next = response.body.find('\n', pos)) != std::string::npos) {
    EXPECT_EQ(response.body[pos], '{');
    EXPECT_EQ(response.body[next - 1], '}');
    ++lines;
    pos = next + 1;
  }
  EXPECT_EQ(lines, 3u);
}

TEST_F(DebugServerTest, TracezDownloadsPromotedChromeTrace) {
  QueryLog& log = QueryLog::Global();
  log.Clear();
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    TraceSpan root("query");
    root.SetLabel("tracez-test");
  }
  log.PromoteSlowTrace(/*id=*/77, /*duration_ms=*/123.0, trace);

  HttpResponse html = HttpGet(server_.port(), "/tracez");
  ASSERT_EQ(html.status, 200);
  EXPECT_NE(html.body.find("77"), std::string::npos);

  HttpResponse chrome = HttpGet(server_.port(), "/tracez?format=chrome&id=77");
  ASSERT_EQ(chrome.status, 200);
  EXPECT_NE(chrome.headers.find("application/json"), std::string::npos);
  // Chrome-trace JSON array format, one "X" event per span.
  ASSERT_FALSE(chrome.body.empty());
  EXPECT_EQ(chrome.body.front(), '[');
  EXPECT_NE(chrome.body.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.body.find("\"cat\": \"mira\""), std::string::npos);

  EXPECT_EQ(HttpGet(server_.port(), "/tracez?format=chrome&id=9999").status,
            404);
}

TEST_F(DebugServerTest, ProfilezRejectsMalformedParams) {
  EXPECT_EQ(HttpGet(server_.port(), "/profilez?seconds=abc").status, 400);
  EXPECT_EQ(HttpGet(server_.port(), "/profilez?hz=banana").status, 400);
}

TEST_F(DebugServerTest, StatusSectionAndCollectorAreServed) {
  std::atomic<int> collector_runs{0};
  server_.AddCollector([&] {
    collector_runs.fetch_add(1);
    MetricRegistry::Global().GetGauge("mira.test.debugz_collector_gauge").Set(42.0);
  });
  server_.AddStatusSection("Debugz test section",
                           [] { return std::string("section-body-sentinel"); });

  HttpResponse statusz = HttpGet(server_.port(), "/statusz");
  ASSERT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("Debugz test section"), std::string::npos);
  EXPECT_NE(statusz.body.find("section-body-sentinel"), std::string::npos);

  HttpResponse varz = HttpGet(server_.port(), "/varz");
  ASSERT_EQ(varz.status, 200);
  EXPECT_NE(varz.body.find("mira.test.debugz_collector_gauge"),
            std::string::npos);
  EXPECT_GE(collector_runs.load(), 2);
}

// Races query-log + metric writers against scraping threads; the interesting
// assertions are the ones TSan makes. Listed in the TSan CI job's
// --gtest_filter — keep the suite name stable.
TEST(DebugServerStressTest, ConcurrentWritersAndScrapes) {
  DebugServer server;
  ASSERT_TRUE(server.Start({}).ok());
  const uint16_t port = server.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&stop] {
      Counter& hits =
          MetricRegistry::Global().GetCounter("mira.test.debugz_stress_hits");
      Gauge& level =
          MetricRegistry::Global().GetGauge("mira.test.debugz_stress_level");
      double x = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        hits.Increment();
        level.Set(x += 0.5);
      }
    });
    writers.emplace_back([&stop, w] {
      while (!stop.load(std::memory_order_relaxed)) {
        QueryLogEntry entry;
        entry.SetMethod(w == 0 ? "anns" : "exhaustive");
        entry.k = 10;
        entry.duration_ms = 0.25;
        QueryLog::Global().Record(entry);
      }
    });
  }

  // An empty log exports an empty body, so scrape only once the log writers
  // have started (on a loaded host they can trail the scrapers by several
  // requests).
  while (QueryLog::Global().total_recorded() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const char* kPaths[] = {"/metricsz", "/varz", "/querylogz?format=jsonl",
                          "/healthz"};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 4; ++s) {
    scrapers.emplace_back([&, s] {
      for (int i = 0; i < 8; ++i) {
        HttpResponse response = HttpGet(port, kPaths[(s + i) % 4]);
        if (response.status != 200 || response.body.empty())
          failures.fetch_add(1);
      }
    });
  }
  for (auto& t : scrapers) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(server.requests_served(), 0u);
}

// ---------- CPU profiler ----------
// NOT in the TSan job: TSan's signal interception rejects the profiler's
// legitimate in-handler work.

TEST(CpuProfilerTest, RejectsBadArguments) {
  CpuProfile profile;
  CpuProfileOptions options;
  options.frequency_hz = 0;
  EXPECT_EQ(CollectCpuProfile(options, &profile).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CollectCpuProfile({}, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(CpuProfilerTest, CapturesBusyWorkAsFoldedStacks) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> busy;
  for (int t = 0; t < 2; ++t) {
    busy.emplace_back([&stop] {
      volatile double sink = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 1; i < 2048; ++i) sink = sink + std::sqrt(double(i));
      }
    });
  }

  CpuProfileOptions options;
  options.frequency_hz = 199;
  options.duration_seconds = 0.4;
  CpuProfile profile;
  Status status = CollectCpuProfile(options, &profile);
  stop.store(true);
  for (auto& t : busy) t.join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(profile.samples_captured, 0u);
  EXPECT_FALSE(profile.folded.empty());
  EXPECT_EQ(profile.frequency_hz, 199);
  // Folded format: every line is "frame[;frame...] <count>\n".
  size_t pos = 0, next;
  while ((next = profile.folded.find('\n', pos)) != std::string::npos) {
    const std::string line = profile.folded.substr(pos, next - pos);
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
    pos = next + 1;
  }
  // Untagged busy threads land under query tag 0.
  uint64_t tagged_total = 0;
  for (const auto& [tag, count] : profile.samples_by_query_tag)
    tagged_total += count;
  EXPECT_EQ(tagged_total, profile.samples_captured);
}

TEST(CpuProfilerTest, SecondConcurrentProfileIsUnavailable) {
  std::atomic<bool> stop{false};
  std::thread busy([&stop] {
    volatile double sink = 0.0;
    while (!stop.load(std::memory_order_relaxed)) sink = sink + 1.0;
  });

  CpuProfileOptions slow;
  slow.duration_seconds = 0.6;
  CpuProfile first;
  Status first_status;
  std::thread collector(
      [&] { first_status = CollectCpuProfile(slow, &first); });
  // Give the collector time to arm, then the guard must be visible.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(CpuProfileActive());
  CpuProfile second;
  EXPECT_EQ(CollectCpuProfile({}, &second).code(), StatusCode::kUnavailable);
  collector.join();
  stop.store(true);
  busy.join();
  EXPECT_TRUE(first_status.ok()) << first_status.ToString();
  EXPECT_FALSE(CpuProfileActive());
}

#else  // !MIRA_OBS_ENABLED

TEST(DebugServerStubTest, StartReportsCompiledOut) {
  DebugServer server;
  EXPECT_EQ(server.Start({}).code(), StatusCode::kNotImplemented);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.Stop();  // No-op.
}

TEST(CpuProfilerStubTest, CollectReportsCompiledOut) {
  CpuProfile profile;
  EXPECT_EQ(CollectCpuProfile({}, &profile).code(),
            StatusCode::kNotImplemented);
  EXPECT_FALSE(CpuProfileActive());
}

#endif  // MIRA_OBS_ENABLED

}  // namespace
}  // namespace mira::obs
