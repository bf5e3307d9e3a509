// Latency-under-load harness for the DiscoveryService front-end: drives the
// admission-controlled service over a real (small) engine with closed-loop
// clients (fixed concurrency, each waiting for its response) and an open-loop
// arrival process (fixed offered QPS, submit-and-forget), and emits the
// QPS-vs-p50/p99 curves as BENCH_service_load.json. The interesting regime is
// past saturation: the bounded queue + token buckets must shed with
// kResourceExhausted instead of queueing unboundedly, which keeps the p99 of
// *accepted* requests within a small multiple of the unloaded p99
// (tools/obs_checks.py service-load gates exactly that in the perf-smoke CI
// job).
//
//   --quick            CI smoke: smaller corpus, fewer load points, shorter
//                      measurement windows; directionally meaningful only.
//   --debug-server / --hold   the shared serve tail (bench/harness.h), with
//                      the service's /servicez page registered; the hold loop
//                      keeps driving queries through the service so the page
//                      and /querylogz show live shed/evict counters.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/timer.h"
#include "datagen/workload.h"
#include "discovery/engine.h"
#include "harness.h"
#include "obs/query_log.h"
#include "service/discovery_service.h"
#include "service/monitor.h"
#include "vecmath/simd.h"

namespace {

using namespace mira;

struct LoadConfig {
  size_t tables = 400;
  size_t encoder_dim = 192;
  size_t worker_threads = 4;
  size_t max_queue_depth = 4;  // shallow on purpose: shed, don't buffer
  size_t warmup_queries = 8;
  size_t unloaded_queries = 60;
  double window_seconds = 1.0;
  std::vector<size_t> closed_clients = {1, 2, 4, 8, 16};
  std::vector<double> open_multipliers = {0.5, 1.0, 2.0};
};

/// Thread-safe accumulator for one measured load point.
struct PointStats {
  Mutex mu;
  std::vector<double> accepted_ms MIRA_GUARDED_BY(mu);
  uint64_t completed MIRA_GUARDED_BY(mu) = 0;
  uint64_t rejected MIRA_GUARDED_BY(mu) = 0;
  uint64_t evicted MIRA_GUARDED_BY(mu) = 0;
  uint64_t failed MIRA_GUARDED_BY(mu) = 0;
  uint64_t fanout_dispatches MIRA_GUARDED_BY(mu) = 0;

  void Record(const service::ServiceResponse& response) {
    MutexLock lock(mu);
    switch (response.outcome) {
      case service::RequestOutcome::kCompleted:
        ++completed;
        accepted_ms.push_back(response.queue_ms + response.run_ms);
        if (response.mode == service::DispatchMode::kFanOut) {
          ++fanout_dispatches;
        }
        break;
      case service::RequestOutcome::kRejected:
        ++rejected;
        break;
      case service::RequestOutcome::kEvicted:
        ++evicted;
        break;
      case service::RequestOutcome::kFailed:
        ++failed;
        break;
    }
  }
  uint64_t Total() {
    MutexLock lock(mu);
    return completed + rejected + evicted + failed;
  }
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5));
  return values[index];
}

/// Tenants the clients rotate through (round-robin), so the per-tenant
/// metric slices and /tenantz have several distinct rows whose counts must
/// sum to the service totals.
constexpr const char* kTenants[] = {"alpha", "beta", "gamma"};

service::ServiceRequest MakeRequest(const datagen::Workload& workload,
                                    size_t i) {
  service::ServiceRequest request;
  request.tenant = kTenants[i % std::size(kTenants)];
  request.method = discovery::Method::kAnns;
  request.query = workload.queries[i % workload.queries.size()].text;
  request.options.top_k = 10;
  return request;
}

/// Fixed-concurrency clients, each blocking on its own request stream.
void RunClosedLoop(service::DiscoveryService& svc,
                   const datagen::Workload& workload, size_t clients,
                   double window_seconds, PointStats* stats) {
  std::atomic<bool> running{true};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t i = c * 131;  // de-correlate the query streams
      while (running.load(std::memory_order_acquire)) {
        service::ServiceResponse response =
            svc.Search(MakeRequest(workload, i++));
        const bool shed =
            response.outcome == service::RequestOutcome::kRejected;
        const double backoff_ms = response.retry_after_ms;
        stats->Record(std::move(response));
        if (shed && backoff_ms > 0.0) {
          // Honor the service's retry-after hint (capped so short windows
          // still measure): a well-behaved client backs off when shed.
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              std::min(backoff_ms, 20.0)));
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(window_seconds));
  running.store(false, std::memory_order_release);
  for (std::thread& t : threads) t.join();
}

/// Fixed-rate arrivals, submit-and-forget: offered load does not slow down
/// when the service does, which is what exposes unbounded queueing.
void RunOpenLoop(service::DiscoveryService& svc,
                 const datagen::Workload& workload, double target_qps,
                 double window_seconds, PointStats* stats) {
  const auto interval = std::chrono::duration<double>(1.0 / target_qps);
  const auto start = std::chrono::steady_clock::now();
  const auto end =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(window_seconds));
  size_t submitted = 0;
  auto next = start;
  while (next < end) {
    std::this_thread::sleep_until(next);
    svc.Submit(MakeRequest(workload, submitted),
               [stats](service::ServiceResponse response) {
                 stats->Record(std::move(response));
               });
    ++submitted;
    next = start + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       interval * static_cast<double>(submitted));
  }
  // Drain: every submitted request gets exactly one callback.
  while (stats->Total() < submitted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Writes one load point's row and returns its completed qps.
double EmitRow(bench::BenchJsonWriter& json, PointStats* stats,
               const std::string& mode, double knob, double window_seconds) {
  std::vector<double> accepted;
  double completed = 0.0;
  double rejected = 0.0;
  double evicted = 0.0;
  double failed = 0.0;
  double fanout = 0.0;
  {
    MutexLock lock(stats->mu);
    accepted = stats->accepted_ms;
    completed = static_cast<double>(stats->completed);
    rejected = static_cast<double>(stats->rejected);
    evicted = static_cast<double>(stats->evicted);
    failed = static_cast<double>(stats->failed);
    fanout = static_cast<double>(stats->fanout_dispatches);
  }
  const double total = completed + rejected + evicted + failed;
  const double p50 = Percentile(accepted, 0.50);
  const double p99 = Percentile(accepted, 0.99);
  json.AddRow();
  json.Set("mode", mode);
  json.Set(mode == "closed" ? "clients" : "target_qps", knob);
  json.Set("offered_qps", total / window_seconds);
  json.Set("completed_qps", completed / window_seconds);
  json.Set("completed", completed);
  json.Set("rejected", rejected);
  json.Set("evicted", evicted);
  json.Set("failed", failed);
  json.Set("shed_fraction", total > 0.0 ? rejected / total : 0.0);
  json.Set("fanout_fraction", completed > 0.0 ? fanout / completed : 0.0);
  json.Set("p50_ms", p50);
  json.Set("p99_ms", p99);
  std::printf("  %-6s %8.1f  offered %8.1f qps  done %8.1f qps  "
              "shed %5.1f%%  p50 %7.2f ms  p99 %7.2f ms\n",
              mode.c_str(), knob, total / window_seconds,
              completed / window_seconds,
              total > 0.0 ? 100.0 * rejected / total : 0.0, p50, p99);
  return completed / window_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> serve_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      serve_argv.push_back(argv[i]);
    }
  }
  const bench::ServeOptions serve = bench::ParseServeArgs(
      static_cast<int>(serve_argv.size()), serve_argv.data());
  if (serve.parse_error) return 2;

  LoadConfig cfg;
  if (quick) {
    cfg.tables = 150;
    cfg.unloaded_queries = 30;
    // Long enough that the 2x overload point fills a third of the monitor's
    // 1.5 s fast window, so the shed-fraction SLO breaches on its own.
    cfg.window_seconds = 0.5;
    cfg.closed_clients = {1, 4, 12};
    cfg.open_multipliers = {0.5, 2.0};
  }

  std::printf("service load harness (%zu tables, %zu workers, queue %zu%s)\n",
              cfg.tables, cfg.worker_threads, cfg.max_queue_depth,
              quick ? ", --quick" : "");

  datagen::WorkloadOptions workload_options =
      datagen::WikiTablesWorkload(cfg.tables);
  workload_options.queries.per_class = 8;
  datagen::Workload workload = datagen::Workload::Generate(workload_options);

  discovery::EngineOptions engine_options;
  engine_options.encoder.dim = cfg.encoder_dim;
  engine_options.build_cts = false;  // ANNS only: the serving-path method
  auto engine_result = discovery::DiscoveryEngine::Build(
      workload.corpus.federation, workload.bank.lexicon(), engine_options);
  if (!engine_result.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine_result.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(engine_result).ValueOrDie();

  service::ServiceOptions service_options;
  service_options.worker_threads = cfg.worker_threads;
  service_options.admission.max_queue_depth = cfg.max_queue_depth;
  // Bench tenants are never quota-limited: shedding here must come from the
  // queue bound, i.e. from actual service saturation. Distinct priorities so
  // the priority queues (and the per-tenant priority gauges) are exercised.
  service_options.admission.default_quota.refill_qps = 1e9;
  service_options.admission.default_quota.burst = 1e9;
  int priority = 0;
  for (const char* tenant : kTenants) {
    service::TenantQuota quota = service_options.admission.default_quota;
    quota.priority = priority++;
    service_options.admission.tenant_quotas[tenant] = quota;
  }
  service::DiscoveryService svc(engine.get(), service_options);
  if (Status started = svc.Start(); !started.ok()) {
    std::fprintf(stderr, "service start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  // Warmup, then the unloaded baseline every overload row is judged against.
  for (size_t i = 0; i < cfg.warmup_queries; ++i) {
    (void)svc.Search(MakeRequest(workload, i));
  }
  std::vector<double> unloaded;
  unloaded.reserve(cfg.unloaded_queries);
  for (size_t i = 0; i < cfg.unloaded_queries; ++i) {
    service::ServiceResponse response = svc.Search(MakeRequest(workload, i));
    if (response.outcome == service::RequestOutcome::kCompleted) {
      unloaded.push_back(response.queue_ms + response.run_ms);
    }
  }
  const double unloaded_p50 = Percentile(unloaded, 0.50);
  const double unloaded_p99 = Percentile(unloaded, 0.99);
  std::printf("unloaded: p50 %.2f ms  p99 %.2f ms\n\n", unloaded_p50,
              unloaded_p99);

  // Slow-query promotion threshold anchored at the unloaded median: under
  // overload most runs cross it, so /tracez fills with the promoted traces
  // the latency-histogram exemplars point at.
  obs::QueryLog::Global().SetSlowThresholdMs(std::max(0.05, unloaded_p50));

  // Self-monitoring with bench-scale windows: sub-second buckets and a
  // seconds-long fast window, so the shed-fraction SLO visibly burns and
  // breaches *within* the overload points and recovers during --hold
  // (tools/obs_checks.py slo gates exactly that).
  service::ServiceMonitor::Options monitor_options;
  monitor_options.bucket_seconds = 0.25;
  monitor_options.eval_interval_s = 0.1;
  monitor_options.fast_window_s = 1.5;
  monitor_options.slow_window_s = 4.0;
  monitor_options.latency_threshold_ms = std::max(1.0, unloaded_p99 * 4.0);
  // Tight budget (2% shed) so the saturated load points burn > breach_burn
  // (a 40%+ shed fraction burns 20x) and the breach is unambiguous.
  monitor_options.shed_target_fraction = 0.02;
  monitor_options.tenants.assign(std::begin(kTenants), std::end(kTenants));
  monitor_options.watchdog.interval_s = 0.25;
  service::ServiceMonitor monitor(&svc, monitor_options);
  monitor.Start();

  bench::BenchJsonWriter json("service_load");
  json.SetMeta("tables", static_cast<double>(cfg.tables));
  json.SetMeta("worker_threads", static_cast<double>(cfg.worker_threads));
  json.SetMeta("max_queue_depth", static_cast<double>(cfg.max_queue_depth));
  json.SetMeta("window_seconds", cfg.window_seconds);
  json.SetMeta("unloaded_p50_ms", unloaded_p50);
  json.SetMeta("unloaded_p99_ms", unloaded_p99);
  json.SetMeta("quick", quick ? "true" : "false");
  json.SetMeta("simd_tier", std::string(vecmath::SimdTierName(
                                vecmath::ActiveSimdTier())));

  // Saturation is measured, not estimated from the unloaded latency: it is
  // the best completed qps of the closed loops, whose largest client count
  // (well above the worker count) keeps every worker busy. The open-loop
  // points are placed from it.
  double saturation_qps = 0.0;
  for (size_t clients : cfg.closed_clients) {
    PointStats stats;
    RunClosedLoop(svc, workload, clients, cfg.window_seconds, &stats);
    saturation_qps = std::max(
        saturation_qps, EmitRow(json, &stats, "closed",
                                static_cast<double>(clients),
                                cfg.window_seconds));
  }
  json.SetMeta("saturation_qps", saturation_qps);
  std::printf("measured saturation %.1f qps\n", saturation_qps);
  for (double multiplier : cfg.open_multipliers) {
    const double target_qps = std::max(1.0, saturation_qps * multiplier);
    PointStats stats;
    RunOpenLoop(svc, workload, target_qps, cfg.window_seconds, &stats);
    EmitRow(json, &stats, "open", target_qps, cfg.window_seconds);
  }

  if (Status written = json.Write(); !written.ok()) {
    std::fprintf(stderr, "json write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }

  std::printf("\n%s\n", svc.RenderServicez().c_str());
  std::printf("%s\n", monitor.RenderSlozz().c_str());

  size_t drive_i = 0;
  Status serve_status = bench::ServeAndHold(
      serve, engine.get(),
      [&svc, &workload, &drive_i] {
        (void)svc.Search(MakeRequest(workload, drive_i++));
      },
      [&svc, &monitor](obs::DebugServer& server) {
        svc.RegisterDebugPages(&server);
        monitor.RegisterDebugPages(&server);
      });
  if (!serve_status.ok()) {
    std::fprintf(stderr, "serve failed: %s\n",
                 serve_status.ToString().c_str());
    monitor.Stop();
    svc.Stop();
    return 1;
  }
  monitor.Stop();
  svc.Stop();
  return 0;
}
