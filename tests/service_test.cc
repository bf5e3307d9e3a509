// Service-layer tests: token buckets and per-tenant admission control, the
// DiscoveryService overload ladder (reject -> evict -> preemptive degrade),
// the two-mode scheduler, shutdown semantics, and the latency-under-load
// acceptance bound (accepted p99 within 3x unloaded p99 at 2x saturation).
// Companion doc: docs/ROBUSTNESS.md § "Service-layer overload".

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "datagen/workload.h"
#include "discovery/engine.h"
#include "discovery/types.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "service/admission.h"
#include "service/discovery_service.h"
#include "service/monitor.h"
#include "service/watchdog.h"

namespace mira::service {
namespace {

using discovery::DiscoveryHit;
using discovery::Ranking;

// ---------- TokenBucket ----------

TEST(TokenBucketTest, BurstThenEmpty) {
  TokenBucket bucket(/*refill_qps=*/1.0, /*burst=*/3.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(0.0));
}

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  TokenBucket bucket(/*refill_qps=*/10.0, /*burst=*/1.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(0.05));  // half a token accrued
  EXPECT_TRUE(bucket.TryAcquire(0.11));   // a full token after 100 ms
  // Refill never overshoots the burst capacity.
  EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_FALSE(bucket.TryAcquire(100.0));
}

TEST(TokenBucketTest, SecondsUntilTokenIsExact) {
  TokenBucket bucket(/*refill_qps=*/4.0, /*burst=*/1.0);
  EXPECT_DOUBLE_EQ(bucket.SecondsUntilToken(0.0), 0.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_NEAR(bucket.SecondsUntilToken(0.0), 0.25, 1e-9);
  EXPECT_NEAR(bucket.SecondsUntilToken(0.125), 0.125, 1e-9);
}

TEST(TokenBucketTest, ZeroRefillNeverRecovers) {
  TokenBucket bucket(/*refill_qps=*/0.0, /*burst=*/1.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(1e9));
  EXPECT_TRUE(std::isinf(bucket.SecondsUntilToken(1e9)));
}

// ---------- AdmissionController ----------

AdmissionOptions TightAdmission() {
  AdmissionOptions options;
  options.max_queue_depth = 4;
  options.default_quota.refill_qps = 2.0;
  options.default_quota.burst = 2.0;
  return options;
}

TEST(AdmissionControllerTest, AdmitsWithinQuota) {
  AdmissionController controller(TightAdmission());
  AdmissionDecision decision = controller.Admit("alice", 0, 0.0);
  EXPECT_EQ(decision.outcome, AdmitOutcome::kAdmit);
  EXPECT_TRUE(decision.status.ok());
}

TEST(AdmissionControllerTest, QuotaRejectCarriesRetryAfter) {
  AdmissionController controller(TightAdmission());
  EXPECT_EQ(controller.Admit("alice", 0, 0.0).outcome, AdmitOutcome::kAdmit);
  EXPECT_EQ(controller.Admit("alice", 0, 0.0).outcome, AdmitOutcome::kAdmit);
  AdmissionDecision rejected = controller.Admit("alice", 0, 0.0);
  EXPECT_EQ(rejected.outcome, AdmitOutcome::kRejectQuota);
  EXPECT_TRUE(rejected.status.IsResourceExhausted())
      << rejected.status.ToString();
  // An empty bucket at 2 qps holds a token after 500 ms; the hint must not
  // tell the client to come back sooner.
  EXPECT_GE(rejected.retry_after_ms, 500.0);
  EXPECT_NE(rejected.status.message().find("retry after"), std::string::npos)
      << rejected.status.message();
}

TEST(AdmissionControllerTest, QueueFullRejectsEvenWithQuota) {
  AdmissionOptions options = TightAdmission();
  options.retry.jitter_source = [](int) { return 0.5; };
  AdmissionController controller(options);
  AdmissionDecision rejected =
      controller.Admit("alice", options.max_queue_depth, 0.0);
  EXPECT_EQ(rejected.outcome, AdmitOutcome::kRejectQueueFull);
  EXPECT_TRUE(rejected.status.IsResourceExhausted());
  // Queue-full retry-after is the policy's first (deterministic, thanks to
  // the jitter seam) backoff step.
  EXPECT_DOUBLE_EQ(rejected.retry_after_ms,
                   RetryPolicy(options.retry).BackoffMsForAttempt(1));
}

TEST(AdmissionControllerTest, TenantsAreIsolated) {
  AdmissionController controller(TightAdmission());
  // Alice burns through her burst...
  EXPECT_EQ(controller.Admit("alice", 0, 0.0).outcome, AdmitOutcome::kAdmit);
  EXPECT_EQ(controller.Admit("alice", 0, 0.0).outcome, AdmitOutcome::kAdmit);
  EXPECT_EQ(controller.Admit("alice", 0, 0.0).outcome,
            AdmitOutcome::kRejectQuota);
  // ...without costing Bob anything.
  EXPECT_EQ(controller.Admit("bob", 0, 0.0).outcome, AdmitOutcome::kAdmit);
}

TEST(AdmissionControllerTest, PerTenantQuotaAndPriorityApply) {
  AdmissionOptions options = TightAdmission();
  options.tenant_quotas["vip"] = TenantQuota{100.0, 50.0, /*priority=*/7};
  AdmissionController controller(options);
  AdmissionDecision decision = controller.Admit("vip", 0, 0.0);
  EXPECT_EQ(decision.outcome, AdmitOutcome::kAdmit);
  EXPECT_EQ(decision.priority, 7);
  EXPECT_EQ(controller.Admit("anon", 0, 0.0).priority, 0);
}

TEST(AdmissionControllerTest, TenantStatesReportCounters) {
  AdmissionController controller(TightAdmission());
  (void)controller.Admit("alice", 0, 0.0);
  (void)controller.Admit("alice", 0, 0.0);
  (void)controller.Admit("alice", 0, 0.0);  // quota reject
  std::vector<AdmissionController::TenantState> states =
      controller.TenantStates(0.0);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].tenant, "alice");
  EXPECT_EQ(states[0].admitted, 2u);
  EXPECT_EQ(states[0].rejected, 1u);
  EXPECT_LT(states[0].tokens, 1.0);
  EXPECT_DOUBLE_EQ(states[0].burst, 2.0);
}

// ---------- DiscoveryService over a synthetic runner ----------

/// Generous quota so only the knob under test (queue bound, deadline,
/// pressure) decides outcomes.
ServiceOptions SyntheticOptions() {
  ServiceOptions options;
  options.admission.default_quota.refill_qps = 1e6;
  options.admission.default_quota.burst = 1e6;
  options.record_query_log = false;
  return options;
}

/// Collects async responses; counts down to zero as callbacks land.
struct Collector {
  Mutex mu;
  CondVar cv;
  int pending MIRA_GUARDED_BY(mu) = 0;
  std::vector<ServiceResponse> responses MIRA_GUARDED_BY(mu);

  void Expect(int n) {
    MutexLock lock(mu);
    pending += n;
  }
  DiscoveryService::Callback Callback() {
    return [this](ServiceResponse response) {
      MutexLock lock(mu);
      responses.push_back(std::move(response));
      --pending;
      cv.NotifyAll();
    };
  }
  std::vector<ServiceResponse> Await() {
    MutexLock lock(mu);
    while (pending > 0) cv.Wait(lock);
    return responses;
  }
};

Result<Ranking> OneHit() { return Ranking{{DiscoveryHit{1, 0.9f}}}; }

TEST(DiscoveryServiceTest, StartStopLifecycle) {
  DiscoveryService svc([](const ServiceRequest&) { return OneHit(); },
                       SyntheticOptions());
  ASSERT_TRUE(svc.Start().ok());
  EXPECT_TRUE(svc.Start().IsFailedPrecondition());
  svc.Stop();
  svc.Stop();  // idempotent

  // Submits after Stop complete (inline) with kUnavailable, not silence.
  ServiceResponse response = svc.Search(ServiceRequest{});
  EXPECT_EQ(response.outcome, RequestOutcome::kFailed);
  EXPECT_TRUE(response.status.IsUnavailable()) << response.status.ToString();
}

TEST(DiscoveryServiceTest, CompletesQueriesAndCountsThem) {
  std::atomic<int> runs{0};
  DiscoveryService svc(
      [&runs](const ServiceRequest& request) {
        runs.fetch_add(1, std::memory_order_relaxed);
        EXPECT_EQ(request.query, "covid vaccination rates");
        return OneHit();
      },
      SyntheticOptions());
  ASSERT_TRUE(svc.Start().ok());
  ServiceRequest request;
  request.query = "covid vaccination rates";
  ServiceResponse response = svc.Search(std::move(request));
  EXPECT_EQ(response.outcome, RequestOutcome::kCompleted);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.ranking.size(), 1u);
  EXPECT_EQ(response.ranking[0].relation, 1u);
  EXPECT_EQ(runs.load(), 1);

  DiscoveryService::Stats stats = svc.GetStats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  svc.Stop();
}

TEST(DiscoveryServiceTest, RunnerErrorSurfacesAsFailed) {
  DiscoveryService svc(
      [](const ServiceRequest&) -> Result<Ranking> {
        return Status::Internal("searcher blew up");
      },
      SyntheticOptions());
  ASSERT_TRUE(svc.Start().ok());
  ServiceResponse response = svc.Search(ServiceRequest{});
  EXPECT_EQ(response.outcome, RequestOutcome::kFailed);
  EXPECT_TRUE(response.status.IsInternal());
  EXPECT_EQ(svc.GetStats().failed, 1u);
  svc.Stop();
}

TEST(DiscoveryServiceTest, RejectionCallbackRunsInlineOnSubmitterThread) {
  ServiceOptions options = SyntheticOptions();
  options.admission.default_quota.refill_qps = 0.001;
  options.admission.default_quota.burst = 1.0;
  options.worker_threads = 1;
  std::atomic<int> runs{0};
  DiscoveryService svc(
      [&runs](const ServiceRequest&) {
        runs.fetch_add(1, std::memory_order_relaxed);
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());
  (void)svc.Search(ServiceRequest{});  // consumes the single burst token

  bool callback_ran = false;
  const std::thread::id submitter = std::this_thread::get_id();
  svc.Submit(ServiceRequest{}, [&](ServiceResponse response) {
    callback_ran = true;
    EXPECT_EQ(std::this_thread::get_id(), submitter);
    EXPECT_EQ(response.outcome, RequestOutcome::kRejected);
    EXPECT_TRUE(response.status.IsResourceExhausted());
    EXPECT_GT(response.retry_after_ms, 0.0);
  });
  // Inline contract: the rejection already completed when Submit returned.
  EXPECT_TRUE(callback_ran);
  svc.Stop();
  EXPECT_EQ(runs.load(), 1);
}

TEST(DiscoveryServiceTest, OverloadShedsWithResourceExhausted) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 2;
  options.admission.max_queue_depth = 2;
  DiscoveryService svc(
      [](const ServiceRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());

  constexpr int kBurst = 40;
  Collector collector;
  collector.Expect(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    svc.Submit(ServiceRequest{}, collector.Callback());
  }
  std::vector<ServiceResponse> responses = collector.Await();
  svc.Stop();

  int completed = 0;
  int rejected = 0;
  for (const ServiceResponse& response : responses) {
    if (response.outcome == RequestOutcome::kCompleted) {
      ++completed;
    } else {
      ASSERT_EQ(response.outcome, RequestOutcome::kRejected);
      ++rejected;
      // Acceptance criterion: every shed request carries kResourceExhausted
      // plus a usable retry-after hint.
      EXPECT_TRUE(response.status.IsResourceExhausted())
          << response.status.ToString();
      EXPECT_GT(response.retry_after_ms, 0.0);
    }
  }
  EXPECT_EQ(completed + rejected, kBurst);
  // A burst 10x past capacity must shed, not queue unboundedly: at most
  // workers + queue (+ the few dispatched while submitting) ever get in.
  EXPECT_GT(rejected, 0);
  DiscoveryService::Stats stats = svc.GetStats();
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(rejected));
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(DiscoveryServiceTest, ExpiredInQueueIsEvictedNeverRun) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 1;
  options.pressure_degrade_fraction = 1.1;  // pressure ladder off
  std::atomic<int> runs{0};
  DiscoveryService svc(
      [&runs](const ServiceRequest&) {
        runs.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());

  Collector collector;
  collector.Expect(5);
  svc.Submit(ServiceRequest{}, collector.Callback());  // occupies the worker
  for (int i = 0; i < 4; ++i) {
    ServiceRequest request;
    request.options.control.deadline = Deadline::After(5.0);
    svc.Submit(std::move(request), collector.Callback());
  }
  std::vector<ServiceResponse> responses = collector.Await();
  svc.Stop();

  int evicted = 0;
  for (const ServiceResponse& response : responses) {
    if (response.outcome != RequestOutcome::kEvicted) continue;
    ++evicted;
    // Acceptance criterion: a deadline that died in the queue surfaces as
    // kDeadlineExceeded and the request never reaches the engine.
    EXPECT_TRUE(response.status.IsDeadlineExceeded())
        << response.status.ToString();
    EXPECT_EQ(response.run_ms, 0.0);
  }
  EXPECT_EQ(evicted, 4);
  EXPECT_EQ(runs.load(), 1) << "an expired queued request ran anyway";
  EXPECT_EQ(svc.GetStats().evicted, 4u);
}

TEST(DiscoveryServiceTest, CancelledInQueueIsEvictedAsCancelled) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 1;
  options.pressure_degrade_fraction = 1.1;
  std::atomic<int> runs{0};
  DiscoveryService svc(
      [&runs](const ServiceRequest&) {
        runs.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());

  Collector collector;
  collector.Expect(2);
  svc.Submit(ServiceRequest{}, collector.Callback());
  CancellationToken token = CancellationToken::Make();
  ServiceRequest request;
  request.options.control.cancel = token;
  svc.Submit(std::move(request), collector.Callback());
  token.RequestCancel();  // while it waits behind the 30 ms request
  std::vector<ServiceResponse> responses = collector.Await();
  svc.Stop();

  int cancelled = 0;
  for (const ServiceResponse& response : responses) {
    if (response.outcome == RequestOutcome::kEvicted) {
      ++cancelled;
      EXPECT_TRUE(response.status.IsCancelled()) << response.status.ToString();
    }
  }
  EXPECT_EQ(cancelled, 1);
  EXPECT_EQ(runs.load(), 1);
}

TEST(DiscoveryServiceTest, QueuePressureImposesFiniteBudgets) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 1;
  options.admission.max_queue_depth = 8;
  options.pressure_degrade_fraction = 0.25;  // depth >= 2 triggers
  options.pressure_budget_scale = 0.5;
  std::atomic<int> tightened{0};
  DiscoveryService svc(
      [&tightened](const ServiceRequest& request) {
        // 500 ms submitted budget; pressure must have cut it to <= ~250 ms.
        const double budget = request.options.control.deadline.budget_ms();
        if (budget < 400.0) tightened.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());

  Collector collector;
  constexpr int kRequests = 8;
  collector.Expect(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ServiceRequest request;
    request.options.control.deadline = Deadline::After(500.0);
    svc.Submit(std::move(request), collector.Callback());
  }
  std::vector<ServiceResponse> responses = collector.Await();
  svc.Stop();

  int preemptive = 0;
  for (const ServiceResponse& response : responses) {
    if (response.preemptively_degraded) ++preemptive;
    // Degrade-before-deadline, not instead of answering: every request
    // still completes.
    EXPECT_EQ(response.outcome, RequestOutcome::kCompleted);
  }
  EXPECT_GT(preemptive, 0) << "queue pressure never tripped the ladder";
  EXPECT_EQ(tightened.load(), preemptive);
}

TEST(DiscoveryServiceTest, SchedulerReportsBothRegimes) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 2;
  options.fanout_queue_threshold = 1;
  options.admission.max_queue_depth = 64;
  DiscoveryService svc(
      [](const ServiceRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());

  // Idle service, single query: shallow queue -> intra-query fan-out mode.
  ServiceResponse solo = svc.Search(ServiceRequest{});
  EXPECT_EQ(solo.mode, DispatchMode::kFanOut);

  // A deep burst must flip dispatches into throughput mode.
  Collector collector;
  constexpr int kBurst = 12;
  collector.Expect(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    svc.Submit(ServiceRequest{}, collector.Callback());
  }
  std::vector<ServiceResponse> responses = collector.Await();
  svc.Stop();
  int throughput = 0;
  for (const ServiceResponse& response : responses) {
    if (response.mode == DispatchMode::kThroughput) ++throughput;
  }
  EXPECT_GT(throughput, 0) << "deep queue never left fan-out mode";
}

TEST(DiscoveryServiceTest, FanOutInflightCapHolds) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 4;
  options.fanout_queue_threshold = 1000;  // always shallow
  options.fanout_inflight_limit = 1;
  std::atomic<int> inflight{0};
  std::atomic<int> max_inflight{0};
  DiscoveryService svc(
      [&](const ServiceRequest&) {
        int now = inflight.fetch_add(1, std::memory_order_acq_rel) + 1;
        int seen = max_inflight.load(std::memory_order_relaxed);
        while (now > seen &&
               !max_inflight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        inflight.fetch_sub(1, std::memory_order_acq_rel);
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());
  Collector collector;
  collector.Expect(6);
  for (int i = 0; i < 6; ++i) {
    svc.Submit(ServiceRequest{}, collector.Callback());
  }
  (void)collector.Await();
  svc.Stop();
  // In fan-out mode the scheduler holds workers back so the running query
  // owns the engine's internal ParallelFor pool.
  EXPECT_EQ(max_inflight.load(), 1);
}

TEST(DiscoveryServiceTest, PriorityTenantsDispatchFirst) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 1;
  options.pressure_degrade_fraction = 1.1;
  options.admission.tenant_quotas["vip"] =
      TenantQuota{1e6, 1e6, /*priority=*/5};
  std::vector<std::string> order;
  Mutex order_mu;
  DiscoveryService vip_svc(
      [&](const ServiceRequest& request) {
        {
          MutexLock lock(order_mu);
          order.push_back(request.tenant);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return OneHit();
      },
      options);
  ASSERT_TRUE(vip_svc.Start().ok());

  Collector collector;
  collector.Expect(4);
  // Occupy the worker, then queue default-tenant work before vip work.
  ServiceRequest head;
  head.tenant = "default";
  vip_svc.Submit(std::move(head), collector.Callback());
  // Wait until the worker runs it: a fixed sleep raced a loaded machine.
  auto head_running = [&] {
    MutexLock lock(order_mu);
    return !order.empty();
  };
  while (!head_running()) std::this_thread::yield();
  for (const char* tenant : {"default", "default", "vip"}) {
    ServiceRequest request;
    request.tenant = tenant;
    vip_svc.Submit(std::move(request), collector.Callback());
  }
  (void)collector.Await();
  vip_svc.Stop();

  std::vector<std::string> final_order;
  {
    MutexLock lock(order_mu);
    final_order = order;
  }
  ASSERT_EQ(final_order.size(), 4u);
  // The vip request was submitted last but jumps the queued default work.
  EXPECT_EQ(final_order[1], "vip");
}

TEST(DiscoveryServiceTest, StopCompletesQueuedRequestsWithUnavailable) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 1;
  options.pressure_degrade_fraction = 1.1;
  DiscoveryService svc(
      [](const ServiceRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());
  Collector collector;
  collector.Expect(5);
  for (int i = 0; i < 5; ++i) {
    svc.Submit(ServiceRequest{}, collector.Callback());
  }
  svc.Stop();  // must complete (not drop) whatever was still queued
  std::vector<ServiceResponse> responses = collector.Await();
  ASSERT_EQ(responses.size(), 5u);
  int unavailable = 0;
  for (const ServiceResponse& response : responses) {
    if (response.status.IsUnavailable()) ++unavailable;
  }
  EXPECT_GT(unavailable, 0) << "queued requests vanished on Stop";
}

TEST(DiscoveryServiceTest, QueryLogCarriesServiceFlags) {
  ServiceOptions options = SyntheticOptions();
  options.record_query_log = true;
  options.worker_threads = 1;
  options.pressure_degrade_fraction = 1.1;
  options.admission.default_quota.refill_qps = 0.001;
  options.admission.default_quota.burst = 2.0;
  DiscoveryService svc(
      [](const ServiceRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());

  Collector collector;
  collector.Expect(3);
  svc.Submit(ServiceRequest{}, collector.Callback());  // completes
  ServiceRequest doomed;
  doomed.options.control.deadline = Deadline::After(2.0);
  svc.Submit(std::move(doomed), collector.Callback());  // evicted
  svc.Submit(ServiceRequest{}, collector.Callback());   // shed (quota)
  (void)collector.Await();
  svc.Stop();

  const std::string log = obs::QueryLog::Global().ExportJsonLines();
  EXPECT_NE(log.find("\"shed\": true"), std::string::npos) << log;
  EXPECT_NE(log.find("\"evicted\": true"), std::string::npos) << log;
}

TEST(DiscoveryServiceTest, ServicezRendersCountersAndTenants) {
  ServiceOptions options = SyntheticOptions();
  options.admission.default_quota.refill_qps = 0.001;
  options.admission.default_quota.burst = 1.0;
  DiscoveryService svc([](const ServiceRequest&) { return OneHit(); },
                       options);
  ASSERT_TRUE(svc.Start().ok());
  ServiceRequest request;
  request.tenant = "render-probe";
  (void)svc.Search(std::move(request));
  ServiceRequest second;
  second.tenant = "render-probe";
  (void)svc.Search(std::move(second));  // quota reject
  svc.Stop();

  const std::string page = svc.RenderServicez();
  EXPECT_NE(page.find("queue_depth"), std::string::npos) << page;
  EXPECT_NE(page.find("rejected (shed): 1"), std::string::npos) << page;
  EXPECT_NE(page.find("render-probe"), std::string::npos) << page;
  EXPECT_NE(page.find("completed: 1"), std::string::npos) << page;
}

// ---------- Per-tenant metric slices ----------

uint64_t TenantCounter(const std::string& tenant, const std::string& field) {
  return obs::MetricRegistry::Global()
      .GetCounter("mira.tenant." + tenant + "." + field)
      .value();
}

uint64_t ServiceCounter(const std::string& name) {
  return obs::MetricRegistry::Global()
      .GetCounter("mira.service." + name)
      .value();
}

TEST(DiscoveryServiceTest, TenantSlicesSumToServiceTotals) {
  // Every outcome, per tenant: completed, runner failure, eviction, quota
  // reject, queue-full reject, Stop drain and submit-after-stop. Per tenant
  // and service-wide, submitted = admitted + rejected + submit-after-stop and
  // admitted = completed + evicted + failed, where failed also counts the
  // submit-after-stop answers. The global registry accumulates
  // across tests, so slices and service counters are diffed against a
  // baseline.
  const std::vector<std::string> tenants = {"slice-a", "slice-b", "slice-c"};
  const std::vector<std::string> fields = {"admitted", "completed", "rejected",
                                           "evicted", "failed"};
  const std::vector<std::string> service_fields = {
      "admitted",          "completed",        "errors", "rejected.quota",
      "rejected.queue_full", "evicted.deadline"};
  std::map<std::string, uint64_t> before;
  for (const std::string& tenant : tenants) {
    for (const std::string& field : fields) {
      before[tenant + "." + field] = TenantCounter(tenant, field);
    }
  }
  for (const std::string& field : service_fields) {
    before[field] = ServiceCounter(field);
  }
  auto slice = [&](const std::string& tenant, const std::string& field) {
    return TenantCounter(tenant, field) - before[tenant + "." + field];
  };
  auto service = [&](const std::string& field) {
    return ServiceCounter(field) - before[field];
  };
  auto request = [](const std::string& tenant, const std::string& query) {
    ServiceRequest out;
    out.tenant = tenant;
    out.query = query;
    return out;
  };

  // Live service: one worker, three tokens per tenant.
  ServiceOptions live_options = SyntheticOptions();
  live_options.worker_threads = 1;
  live_options.pressure_degrade_fraction = 1.1;
  live_options.admission.default_quota.refill_qps = 0.0;
  live_options.admission.default_quota.burst = 3.0;
  DiscoveryService live(
      [](const ServiceRequest& r) -> Result<Ranking> {
        if (r.query == "fail") return Status::Internal("runner failed");
        return OneHit();
      },
      live_options);
  ASSERT_TRUE(live.Start().ok());
  for (const std::string& tenant : tenants) {
    EXPECT_EQ(live.Search(request(tenant, "ok")).outcome,
              RequestOutcome::kCompleted);
    EXPECT_EQ(live.Search(request(tenant, "fail")).outcome,
              RequestOutcome::kFailed);
    ServiceRequest cancelled = request(tenant, "cancelled");
    cancelled.options.control.cancel = CancellationToken::Make();
    cancelled.options.control.cancel.RequestCancel();
    EXPECT_EQ(live.Search(std::move(cancelled)).outcome,
              RequestOutcome::kEvicted);
    ServiceResponse over_quota = live.Search(request(tenant, "over quota"));
    EXPECT_EQ(over_quota.outcome, RequestOutcome::kRejected);
    EXPECT_NE(over_quota.status.message().find("quota"), std::string::npos)
        << over_quota.status.ToString();
  }
  live.Stop();

  // Idle service: no workers, so admitted requests stay queued until Stop
  // drains them; one more per tenant finds the queue full.
  ServiceOptions idle_options = SyntheticOptions();
  idle_options.worker_threads = 0;
  idle_options.admission.max_queue_depth = tenants.size();
  DiscoveryService idle([](const ServiceRequest&) { return OneHit(); },
                        idle_options);
  ASSERT_TRUE(idle.Start().ok());
  Collector collector;
  collector.Expect(static_cast<int>(2 * tenants.size()));
  for (const std::string& tenant : tenants) {
    idle.Submit(request(tenant, "queued"), collector.Callback());
  }
  for (const std::string& tenant : tenants) {
    idle.Submit(request(tenant, "queue full"), collector.Callback());
  }
  idle.Stop();
  int drained = 0;
  int queue_full = 0;
  for (const ServiceResponse& response : collector.Await()) {
    if (response.outcome == RequestOutcome::kFailed &&
        response.status.IsUnavailable()) {
      ++drained;
    }
    if (response.outcome == RequestOutcome::kRejected) ++queue_full;
  }
  EXPECT_EQ(drained, 3);
  EXPECT_EQ(queue_full, 3);

  auto check_identities = [&](uint64_t after_stop) {
    SCOPED_TRACE("submit-after-stop per tenant: " +
                 std::to_string(after_stop));
    // Per tenant: 4 live submissions, 2 idle ones, plus the late ones.
    for (const std::string& tenant : tenants) {
      SCOPED_TRACE(tenant);
      EXPECT_EQ(slice(tenant, "admitted"), 4u);
      EXPECT_EQ(slice(tenant, "completed"), 1u);
      EXPECT_EQ(slice(tenant, "evicted"), 1u);
      EXPECT_EQ(slice(tenant, "rejected"), 2u);
      EXPECT_EQ(slice(tenant, "failed"), 2u + after_stop);
      EXPECT_EQ(6u + after_stop, slice(tenant, "admitted") +
                                     slice(tenant, "rejected") + after_stop);
      EXPECT_EQ(slice(tenant, "admitted"),
                slice(tenant, "completed") + slice(tenant, "evicted") +
                    slice(tenant, "failed") - after_stop);
    }
    // Service-wide: the instance counters of both services, and the
    // mira.service.* family, agree with the slices.
    const DiscoveryService::Stats a = live.GetStats();
    const DiscoveryService::Stats b = idle.GetStats();
    const uint64_t submitted = a.submitted + b.submitted;
    const uint64_t admitted = a.admitted + b.admitted;
    const uint64_t completed = a.completed + b.completed;
    const uint64_t rejected = a.rejected + b.rejected;
    const uint64_t evicted = a.evicted + b.evicted;
    const uint64_t failed = a.failed + b.failed;
    const uint64_t late = after_stop * tenants.size();
    EXPECT_EQ(submitted, 6u * tenants.size() + late);
    EXPECT_EQ(submitted, admitted + rejected + late);
    EXPECT_EQ(admitted, completed + evicted + failed - late);
    uint64_t slice_admitted = 0;
    uint64_t slice_completed = 0;
    uint64_t slice_rejected = 0;
    uint64_t slice_evicted = 0;
    uint64_t slice_failed = 0;
    for (const std::string& tenant : tenants) {
      slice_admitted += slice(tenant, "admitted");
      slice_completed += slice(tenant, "completed");
      slice_rejected += slice(tenant, "rejected");
      slice_evicted += slice(tenant, "evicted");
      slice_failed += slice(tenant, "failed");
    }
    EXPECT_EQ(slice_admitted, admitted);
    EXPECT_EQ(slice_completed, completed);
    EXPECT_EQ(slice_rejected, rejected);
    EXPECT_EQ(slice_evicted, evicted);
    EXPECT_EQ(slice_failed, failed);
    EXPECT_EQ(service("admitted"), admitted);
    EXPECT_EQ(service("completed"), completed);
    EXPECT_EQ(service("rejected.quota"), 3u);
    EXPECT_EQ(service("rejected.queue_full"), 3u);
    EXPECT_EQ(service("rejected.quota") + service("rejected.queue_full"),
              rejected);
    EXPECT_EQ(service("evicted.deadline"), evicted);
    EXPECT_EQ(service("errors"), failed);
  };
  check_identities(0);

  // Submit-after-stop is answered inline as failed and never admitted.
  for (const std::string& tenant : tenants) {
    ServiceResponse late = idle.Search(request(tenant, "late"));
    EXPECT_EQ(late.outcome, RequestOutcome::kFailed);
    EXPECT_TRUE(late.status.IsUnavailable()) << late.status.ToString();
  }
  check_identities(1);
}

TEST(DiscoveryServiceTest, TenantSliceDirectoryIsBoundedByOther) {
  const uint64_t other_before = TenantCounter("_other", "admitted");
  ServiceOptions options = SyntheticOptions();
  options.max_tenant_slices = 2;
  DiscoveryService svc([](const ServiceRequest&) { return OneHit(); },
                       options);
  ASSERT_TRUE(svc.Start().ok());
  for (const char* tenant : {"bound-a", "bound-b", "bound-c", "bound-d"}) {
    ServiceRequest request;
    request.tenant = tenant;
    (void)svc.Search(std::move(request));
  }
  svc.Stop();
  // Slices beyond the cap share the "_other" bucket instead of growing the
  // registry without bound.
  EXPECT_GE(TenantCounter("_other", "admitted") - other_before, 2u);
}

// ---------- Inflight snapshot + stuck-query watchdog ----------

/// Runner that parks until released, so a request stays inflight while the
/// test inspects InflightSnapshot / drives the watchdog.
struct GatedRunner {
  std::atomic<bool> release{false};
  std::atomic<int> entered{0};

  DiscoveryService::QueryRunner Runner() {
    return [this](const ServiceRequest&) {
      entered.fetch_add(1, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return OneHit();
    };
  }
  void AwaitEntered() {
    while (entered.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST(DiscoveryServiceTest, InflightSnapshotShowsRunningRequests) {
  GatedRunner gate;
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 1;
  DiscoveryService svc(gate.Runner(), options);
  ASSERT_TRUE(svc.Start().ok());
  EXPECT_TRUE(svc.InflightSnapshot().empty());

  Collector collector;
  collector.Expect(1);
  ServiceRequest request;
  request.tenant = "inflight-probe";
  request.method = discovery::Method::kCts;
  request.options.control.deadline = Deadline::After(30.0);
  svc.Submit(std::move(request), collector.Callback());
  gate.AwaitEntered();

  std::vector<DiscoveryService::InflightInfo> inflight =
      svc.InflightSnapshot();
  ASSERT_EQ(inflight.size(), 1u);
  EXPECT_GT(inflight[0].id, 0u);
  EXPECT_EQ(inflight[0].tenant, "inflight-probe");
  EXPECT_EQ(inflight[0].method, discovery::Method::kCts);
  EXPECT_GT(inflight[0].budget_ms, 0.0);   // carried a deadline
  EXPECT_GT(inflight[0].start_s, 0.0);

  gate.release.store(true, std::memory_order_release);
  (void)collector.Await();
  svc.Stop();
  EXPECT_TRUE(svc.InflightSnapshot().empty());
}

TEST(StuckQueryWatchdogTest, FlagsOverdueRequestExactlyOnce) {
  GatedRunner gate;
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 1;
  DiscoveryService svc(gate.Runner(), options);
  ASSERT_TRUE(svc.Start().ok());

  StuckQueryWatchdog::Options watchdog_options;
  watchdog_options.min_overdue_ms = 1.0;
  watchdog_options.no_deadline_budget_ms = 1.0;
  StuckQueryWatchdog watchdog([&svc] { return svc.InflightSnapshot(); },
                              watchdog_options);

  Collector collector;
  collector.Expect(1);
  ServiceRequest request;
  request.tenant = "wedged";
  svc.Submit(std::move(request), collector.Callback());  // no deadline
  gate.AwaitEntered();
  std::vector<DiscoveryService::InflightInfo> inflight =
      svc.InflightSnapshot();
  ASSERT_EQ(inflight.size(), 1u);

  // Scan "from the future": the request is far past 3x its (grace) budget.
  const double later_s = inflight[0].start_s + 10.0;
  EXPECT_EQ(watchdog.ScanOnce(later_s), 1u);
  // Still wedged on the next scan, but already reported — not re-flagged.
  EXPECT_EQ(watchdog.ScanOnce(later_s + 1.0), 0u);
  EXPECT_EQ(watchdog.total_stuck(), 1u);
  EXPECT_EQ(watchdog.scans(), 2u);

  std::vector<StuckReport> reports = watchdog.RecentReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].request_id, inflight[0].id);
  EXPECT_EQ(reports[0].tenant, "wedged");
  EXPECT_GT(reports[0].running_ms, 1000.0);

  gate.release.store(true, std::memory_order_release);
  (void)collector.Await();
  svc.Stop();
  // Nothing inflight: a scan finds no offenders and prunes the reported set.
  EXPECT_EQ(watchdog.ScanOnce(later_s + 2.0), 0u);
}

TEST(StuckQueryWatchdogTest, FastRequestsAreNeverFlagged) {
  ServiceOptions options = SyntheticOptions();
  DiscoveryService svc([](const ServiceRequest&) { return OneHit(); },
                       options);
  ASSERT_TRUE(svc.Start().ok());
  StuckQueryWatchdog watchdog([&svc] { return svc.InflightSnapshot(); },
                              StuckQueryWatchdog::Options{});
  watchdog.Start();
  EXPECT_TRUE(watchdog.running());
  for (int i = 0; i < 20; ++i) {
    (void)svc.Search(ServiceRequest{});
  }
  watchdog.Stop();
  EXPECT_FALSE(watchdog.running());
  svc.Stop();
  EXPECT_EQ(watchdog.total_stuck(), 0u);
  EXPECT_TRUE(watchdog.RecentReports().empty());
}

TEST(DiscoveryServiceTest, QueryLogCarriesTenantAndPriority) {
  ServiceOptions options = SyntheticOptions();
  options.record_query_log = true;
  TenantQuota quota;
  quota.refill_qps = 1e6;
  quota.burst = 1e6;
  quota.priority = 2;
  options.admission.tenant_quotas["logged-tenant"] = quota;
  DiscoveryService svc([](const ServiceRequest&) { return OneHit(); },
                       options);
  ASSERT_TRUE(svc.Start().ok());
  ServiceRequest request;
  request.tenant = "logged-tenant";
  ServiceResponse response = svc.Search(std::move(request));
  EXPECT_EQ(response.outcome, RequestOutcome::kCompleted);
  svc.Stop();

  const std::string log = obs::QueryLog::Global().ExportJsonLines();
  EXPECT_NE(log.find("\"tenant\": \"logged-tenant\""), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"priority\": 2"), std::string::npos) << log;
}

// ---------- ServiceMonitor (the /slozz + /tenantz bundle) ----------

TEST(ServiceMonitorTest, RendersObjectivesTenantsAndWatchdog) {
  ServiceOptions options = SyntheticOptions();
  TenantQuota quota;
  quota.refill_qps = 1e6;
  quota.burst = 1e6;
  options.admission.tenant_quotas["mon-a"] = quota;
  options.admission.tenant_quotas["mon-b"] = quota;
  DiscoveryService svc([](const ServiceRequest&) { return OneHit(); },
                       options);
  ASSERT_TRUE(svc.Start().ok());

  ServiceMonitor::Options monitor_options;
  monitor_options.bucket_seconds = 0.5;
  monitor_options.fast_window_s = 2.0;
  monitor_options.slow_window_s = 8.0;
  monitor_options.tenants = {"mon-a", "mon-b"};
  ServiceMonitor monitor(&svc, monitor_options);

  for (const char* tenant : {"mon-a", "mon-b"}) {
    for (int i = 0; i < 3; ++i) {
      ServiceRequest request;
      request.tenant = tenant;
      (void)svc.Search(std::move(request));
    }
  }
  // Deterministic evaluation: tick windows + step the SLO engine directly
  // rather than starting the background thread.
  monitor.windows().Tick(100.0);
  monitor.slo().Step(100.5);
  svc.Stop();

  const std::string slozz = monitor.RenderSlozz();
  EXPECT_NE(slozz.find("latency_p99"), std::string::npos) << slozz;
  EXPECT_NE(slozz.find("shed_fraction"), std::string::npos) << slozz;
  EXPECT_NE(slozz.find("shed_fraction_mon-a"), std::string::npos) << slozz;
  EXPECT_NE(slozz.find("watchdog"), std::string::npos) << slozz;

  const std::string json = monitor.SlozzJson();
  EXPECT_NE(json.find("\"statuses\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"transitions\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"shed_fraction\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"watchdog\""), std::string::npos) << json;

  const std::string tenantz = monitor.RenderTenantz();
  EXPECT_NE(tenantz.find("mon-a"), std::string::npos) << tenantz;
  EXPECT_NE(tenantz.find("mon-b"), std::string::npos) << tenantz;
  EXPECT_NE(tenantz.find("admitted 3"), std::string::npos) << tenantz;
}

TEST(ServiceMonitorTest, StartStopIsCleanAndIdempotent) {
  DiscoveryService svc([](const ServiceRequest&) { return OneHit(); },
                       SyntheticOptions());
  ASSERT_TRUE(svc.Start().ok());
  ServiceMonitor::Options monitor_options;
  monitor_options.eval_interval_s = 0.01;
  monitor_options.watchdog.interval_s = 0.01;
  ServiceMonitor monitor(&svc, monitor_options);
  monitor.Start();
  for (int i = 0; i < 10; ++i) (void)svc.Search(ServiceRequest{});
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  monitor.Stop();
  monitor.Stop();  // idempotent
  svc.Stop();
  EXPECT_GT(monitor.slo().evaluations(), 0u);
}

// ---------- Latency-under-load acceptance ----------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5));
  return values[index];
}

// The ISSUE acceptance bound, in-miniature: at ~2x saturation the service
// sheds instead of queueing unboundedly, so the p99 of *accepted* requests
// stays within 3x the unloaded p99 (plus a small absolute slack for CI
// scheduler noise).
TEST(ServiceLoadAcceptanceTest, AcceptedP99BoundedAtTwiceSaturation) {
  static constexpr double kServiceMs = 15.0;
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 4;
  // 4 running + 2 queued = 6 slots; 12 closed-loop clients offer ~2x that,
  // so the excess MUST shed (a bigger queue would just hide it as latency).
  options.admission.max_queue_depth = 2;
  options.pressure_degrade_fraction = 1.1;
  DiscoveryService svc(
      [](const ServiceRequest&) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(kServiceMs));
        return OneHit();
      },
      options);
  ASSERT_TRUE(svc.Start().ok());

  // Unloaded baseline: sequential closed loop.
  std::vector<double> unloaded;
  for (int i = 0; i < 20; ++i) {
    ServiceResponse response = svc.Search(ServiceRequest{});
    ASSERT_EQ(response.outcome, RequestOutcome::kCompleted);
    unloaded.push_back(response.queue_ms + response.run_ms);
  }
  const double unloaded_p99 = Percentile(unloaded, 0.99);

  // Overload: 4 workers saturate at ~4/kServiceMs qps; 12 closed-loop
  // clients offer ~2x the system's 6 slots.
  struct Accepted {
    Mutex mu;
    std::vector<double> latencies MIRA_GUARDED_BY(mu);
  };
  Accepted accepted;
  std::atomic<int> rejected{0};
  std::atomic<bool> all_rejections_typed{true};
  std::vector<std::thread> clients;
  clients.reserve(12);
  for (int c = 0; c < 12; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 12; ++i) {
        ServiceResponse response = svc.Search(ServiceRequest{});
        if (response.outcome == RequestOutcome::kCompleted) {
          MutexLock lock(accepted.mu);
          accepted.latencies.push_back(response.queue_ms + response.run_ms);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
          if (!response.status.IsResourceExhausted()) {
            all_rejections_typed.store(false, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  svc.Stop();

  std::vector<double> accepted_copy;
  {
    MutexLock lock(accepted.mu);
    accepted_copy = accepted.latencies;
  }
  ASSERT_FALSE(accepted_copy.empty());
  const double loaded_p99 = Percentile(accepted_copy, 0.99);
  EXPECT_GT(rejected.load(), 0) << "2x overload never shed";
  EXPECT_TRUE(all_rejections_typed.load())
      << "a rejection escaped without kResourceExhausted";
  // 3x + slack: the bounded queue admits at most ~one extra service time.
  EXPECT_LE(loaded_p99, 3.0 * unloaded_p99 + 15.0)
      << "unloaded p99 " << unloaded_p99 << " ms, loaded p99 " << loaded_p99
      << " ms";
}

// ---------- Engine-backed smoke ----------

TEST(ServiceEngineSmokeTest, ServesRealDiscoveryQueries) {
  datagen::WorkloadOptions workload_options = datagen::WikiTablesWorkload(100);
  workload_options.bank.num_topics = 6;
  workload_options.bank.aspects_per_topic = 2;
  workload_options.queries.per_class = 2;
  datagen::Workload workload =
      datagen::Workload::Generate(workload_options);

  discovery::EngineOptions engine_options;
  engine_options.encoder.dim = 256;
  engine_options.build_cts = false;  // keep the smoke build cheap
  engine_options.embed_threads = 1;
  auto engine = discovery::DiscoveryEngine::Build(workload.corpus.federation,
                                                  workload.bank.lexicon(),
                                                  engine_options)
                    .MoveValue();

  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 2;
  DiscoveryService svc(engine.get(), options);
  ASSERT_TRUE(svc.Start().ok());
  int answered = 0;
  for (size_t i = 0; i < std::min<size_t>(4, workload.queries.size()); ++i) {
    ServiceRequest request;
    request.method = discovery::Method::kAnns;
    request.query = workload.queries[i].text;
    request.options.top_k = 5;
    ServiceResponse response = svc.Search(std::move(request));
    EXPECT_EQ(response.outcome, RequestOutcome::kCompleted)
        << response.status.ToString();
    if (!response.ranking.empty()) ++answered;
  }
  svc.Stop();
  EXPECT_GT(answered, 0) << "the engine returned no hits for any query";
}

TEST(DiscoveryServiceTest, EachServedRequestLogsOneTenantEntry) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  datagen::WorkloadOptions workload_options = datagen::WikiTablesWorkload(60);
  workload_options.bank.num_topics = 4;
  workload_options.bank.aspects_per_topic = 2;
  workload_options.queries.per_class = 2;
  datagen::Workload workload =
      datagen::Workload::Generate(workload_options);
  discovery::EngineOptions engine_options;
  engine_options.encoder.dim = 64;
  engine_options.build_cts = false;
  engine_options.embed_threads = 1;
  auto engine = discovery::DiscoveryEngine::Build(workload.corpus.federation,
                                                  workload.bank.lexicon(),
                                                  engine_options)
                    .MoveValue();

  ServiceOptions options = SyntheticOptions();
  options.record_query_log = true;
  DiscoveryService svc(engine.get(), options);
  ASSERT_TRUE(svc.Start().ok());
  obs::QueryLog& log = obs::QueryLog::Global();
  log.Clear();
  obs::Histogram& latency =
      obs::MetricRegistry::Global().GetHistogram("mira.service.latency_ms");
  latency.Reset();
  log.SetSlowThresholdMs(0.0001);  // every run is slow: each is promoted
  constexpr size_t kRequests = 6;
  for (size_t i = 0; i < kRequests; ++i) {
    ServiceRequest request;
    request.tenant = i % 2 == 0 ? "even" : "odd";
    request.method = i % 3 == 0 ? discovery::Method::kExhaustive
                                : discovery::Method::kAnns;
    request.query = workload.queries[i % workload.queries.size()].text;
    ServiceResponse response = svc.Search(std::move(request));
    ASSERT_EQ(response.outcome, RequestOutcome::kCompleted)
        << response.status.ToString();
  }
  svc.Stop();
  log.SetSlowThresholdMs(0.0);

  // One entry per request, the service's: tenant-tagged, with the run's
  // span tree summarized on it.
  ASSERT_EQ(log.total_recorded(), kRequests);
  const std::vector<obs::QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), kRequests);
  std::set<uint64_t> ids;
  for (size_t i = 0; i < kRequests; ++i) {
    EXPECT_STREQ(entries[i].tenant, i % 2 == 0 ? "even" : "odd");
    EXPECT_TRUE(entries[i].traced);
    ids.insert(entries[i].id);
  }
  // Each run was promoted under its entry's id, the id the service latency
  // histogram pins as its exemplar.
  std::set<uint64_t> promoted;
  for (const auto& slow : log.SlowTraces()) promoted.insert(slow.id);
  for (uint64_t id : ids) EXPECT_EQ(promoted.count(id), 1u) << "id " << id;
  for (const auto& exemplar : latency.Exemplars()) {
    EXPECT_EQ(ids.count(exemplar.id), 1u) << "exemplar id " << exemplar.id;
  }
}

// ---------- TSan stress ----------

TEST(ServiceOverloadStressTest, ConcurrentSubmitScrapeAndMidFlightStop) {
  ServiceOptions options = SyntheticOptions();
  options.worker_threads = 4;
  options.admission.max_queue_depth = 16;
  options.pressure_degrade_fraction = 0.5;
  options.record_query_log = true;
  DiscoveryService svc(
      [](const ServiceRequest& request) -> Result<Ranking> {
        if (request.options.control.ShouldStop()) {
          return Status::Cancelled("stress: observed mid-run");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return Ranking{{DiscoveryHit{7, 0.5f}}};
      },
      options);
  ASSERT_TRUE(svc.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> callbacks{0};
  std::atomic<bool> scraping{true};

  std::thread scraper([&] {
    while (scraping.load(std::memory_order_acquire)) {
      (void)svc.GetStats();
      (void)svc.RenderServicez();
      (void)svc.TenantStates();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&svc, &callbacks, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ServiceRequest request;
        request.tenant = (t % 2 == 0) ? "even" : "odd";
        if (i % 3 == 0) {
          request.options.control.deadline = Deadline::After(0.5);
        }
        if (i % 7 == 0) {
          CancellationToken token = CancellationToken::Make();
          request.options.control.cancel = token;
          token.RequestCancel();
        }
        svc.Submit(std::move(request),
                   [&callbacks](ServiceResponse) {
                     callbacks.fetch_add(1, std::memory_order_relaxed);
                   });
      }
    });
  }
  // Stop mid-flight: races the submitters on purpose. Every request still
  // gets exactly one callback (inline rejection, eviction, completion, or
  // the shutdown drain).
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.Stop();
  for (std::thread& submitter : submitters) submitter.join();
  scraping.store(false, std::memory_order_release);
  scraper.join();
  // Late submits (after Stop) complete inline; drain the rest.
  svc.Stop();

  EXPECT_EQ(callbacks.load(), kThreads * kPerThread);
  DiscoveryService::Stats stats = svc.GetStats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  // Every submitted request is accounted for exactly once.
  EXPECT_EQ(stats.completed + stats.rejected + stats.evicted + stats.failed,
            stats.submitted);
}

}  // namespace
}  // namespace mira::service
