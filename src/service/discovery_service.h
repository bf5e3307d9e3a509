#ifndef MIRA_SERVICE_DISCOVERY_SERVICE_H_
#define MIRA_SERVICE_DISCOVERY_SERVICE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "discovery/engine.h"
#include "discovery/types.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/admission.h"

namespace mira::service {

/// Which regime the scheduler dispatched a request under (the MAGPIE
/// two-mode threading tradeoff — see docs/ROBUSTNESS.md § service layer):
///  - kFanOut: the queue is shallow, so few requests run at once and each
///    one gets the engine's intra-query `ParallelFor` fan-out to itself.
///  - kThroughput: the queue is deep; every worker dispatches independently
///    (one query per worker) and throughput wins over single-query latency.
enum class DispatchMode { kFanOut = 0, kThroughput = 1 };

std::string_view DispatchModeToString(DispatchMode mode);

/// One discovery query as submitted by a client of the service.
struct ServiceRequest {
  std::string tenant = "default";
  discovery::Method method = discovery::Method::kAnns;
  std::string query;
  discovery::DiscoveryOptions options;
};

enum class RequestOutcome {
  /// Ran to completion (possibly degraded) and carries a ranking.
  kCompleted = 0,
  /// Shed at admission (quota or queue-full); never queued, never ran.
  kRejected,
  /// Admitted, but its deadline expired (or it was cancelled) while queued;
  /// evicted at dispatch time without running.
  kEvicted,
  /// Dispatched but the engine (or an injected fault) returned an error, or
  /// never dispatched because the service was not running (submitted before
  /// Start or after Stop, or still queued when Stop ran).
  kFailed,
};

struct ServiceResponse {
  Status status = Status::OK();
  discovery::Ranking ranking;
  RequestOutcome outcome = RequestOutcome::kCompleted;
  /// Suggested client backoff before retrying (kRejected only).
  double retry_after_ms = 0.0;
  /// Time spent queued before dispatch (0 for rejections).
  double queue_ms = 0.0;
  /// Time spent running in the engine (0 unless dispatched).
  double run_ms = 0.0;
  /// Scheduler regime the request was dispatched under.
  DispatchMode mode = DispatchMode::kThroughput;
  /// True when sustained queue pressure tightened the request's budget
  /// before it ran (degraded-before-deadline; the ranking's own `degraded`
  /// flag says whether the engine actually had to reduce effort).
  bool preemptively_degraded = false;
};

struct ServiceOptions {
  /// Dispatch workers (upper bound on concurrently running queries).
  size_t worker_threads = 4;
  AdmissionOptions admission;
  /// Queue depths at or below this count as "shallow": dispatch switches to
  /// kFanOut and caps concurrency at `fanout_inflight_limit` so the engine's
  /// intra-query ParallelFor owns the cores.
  size_t fanout_queue_threshold = 2;
  size_t fanout_inflight_limit = 2;
  /// Pressure ladder: when the queue at dispatch is at or beyond this
  /// fraction of max_queue_depth, the request runs preemptively degraded —
  /// its budget tightened to `remaining * pressure_budget_scale` (or to
  /// `pressure_budget_ms` if it had no deadline at all).
  double pressure_degrade_fraction = 0.5;
  double pressure_budget_scale = 0.5;
  double pressure_budget_ms = 25.0;
  /// Record every request (including sheds/evictions) in the global
  /// obs::QueryLog.
  bool record_query_log = true;
  /// Distinct tenants that get their own mira.tenant.<name>.* metric slice.
  /// Everyone past the cap shares the "_other" slice, so a tenant-id flood
  /// cannot grow the registry without bound.
  size_t max_tenant_slices = 16;
};

/// Admission-controlled concurrent front-end over DiscoveryEngine.
///
/// Overload policy, in ladder order (docs/ROBUSTNESS.md):
///   1. admission control *rejects* (kResourceExhausted + retry-after) when
///      a tenant is over quota or the bounded queue is full;
///   2. queued requests whose deadline expires before dispatch are
///      *evicted* — they never reach the engine;
///   3. requests dispatched under sustained queue pressure run *preemptively
///      degraded* on a tightened budget, converting tail latency into the
///      engine's graceful-degradation ladder before deadlines fire.
///
/// Thread-safety: all public methods are safe for concurrent use once
/// Start() returned; Start/Stop themselves are for the owning thread.
class DiscoveryService {
 public:
  /// Seam for tests and benches: runs one (admitted, dispatched) request.
  using QueryRunner =
      std::function<Result<discovery::Ranking>(const ServiceRequest&)>;
  using Callback = std::function<void(ServiceResponse)>;

  /// Serves queries from `engine` (not owned; must outlive the service).
  DiscoveryService(const discovery::DiscoveryEngine* engine,
                   ServiceOptions options);
  /// Serves queries through an arbitrary runner (tests, benches).
  DiscoveryService(QueryRunner runner, ServiceOptions options);
  ~DiscoveryService();

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// Spawns the dispatch workers. Fails if already started.
  [[nodiscard]] Status Start();

  /// Stops accepting work, completes every still-queued request with
  /// kUnavailable, and joins the workers. Idempotent.
  void Stop();

  /// Asynchronous entry point. `done` is invoked exactly once: inline (from
  /// the submitting thread) for admission rejections, from a worker thread
  /// otherwise. The callback must not re-enter Stop().
  void Submit(ServiceRequest request, Callback done);

  /// Blocking convenience wrapper around Submit.
  ServiceResponse Search(ServiceRequest request);

  struct Stats {
    size_t queue_depth = 0;
    size_t inflight = 0;
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint64_t evicted = 0;
    uint64_t failed = 0;
    uint64_t preemptively_degraded = 0;
    /// Regime the next dispatch would use at the current depth.
    DispatchMode mode = DispatchMode::kFanOut;
  };
  Stats GetStats() const;

  /// Per-tenant quota view (for /servicez and tests).
  std::vector<AdmissionController::TenantState> TenantStates() const;

  /// One request currently running in a worker (admitted, dispatched, not
  /// yet completed). The stuck-query watchdog polls this.
  struct InflightInfo {
    uint64_t id = 0;  ///< Monotonic dispatch sequence number.
    std::string tenant;
    discovery::Method method = discovery::Method::kAnns;
    double start_s = 0.0;    ///< MonotonicSeconds() at dispatch.
    double budget_ms = 0.0;  ///< Deadline budget at dispatch; 0 = none.
    bool preemptively_degraded = false;
  };
  std::vector<InflightInfo> InflightSnapshot() const;

  /// The /servicez page body (plain text).
  std::string RenderServicez() const;

  /// Registers /servicez on a debugz server. No-op under MIRA_OBS=OFF.
  void RegisterDebugPages(obs::DebugServer* server);

  const ServiceOptions& options() const { return options_; }

 private:
  static constexpr size_t kOutcomes = 4;  ///< RequestOutcome enumerators.

  /// Per-tenant metric slice (mira.tenant.<name>.*) — a bounded label
  /// dimension over the service counters. Handles are resolved once per
  /// tenant and cached; the increments themselves are lock-free.
  struct TenantMetrics {
    obs::Counter* admitted = nullptr;
    /// completed / rejected / evicted / failed, indexed by RequestOutcome.
    std::array<obs::Counter*, kOutcomes> outcomes{};
    obs::Counter* preemptive = nullptr;
    obs::Gauge* priority = nullptr;
    obs::Histogram* latency_ms = nullptr;
  };

  /// One request from Submit to Finish, carrying what Submit resolved for it
  /// once: the tenant's metric slice and its dispatch priority.
  struct Queued {
    ServiceRequest request;
    Callback done;
    TenantMetrics* tenant = nullptr;
    int priority = 0;
    double enqueue_s = 0.0;
    /// Inflight-table key once dispatched; 0 otherwise.
    uint64_t dispatch_id = 0;
    /// The run's span tree when it was sampled; empty otherwise.
    obs::QueryTrace trace;
  };

  /// Every way a request leaves the service. Finish() maps each one to its
  /// RequestOutcome and to the counter it bumps in each family.
  enum class Exit {
    kRejectedQuota,
    kRejectedQueueFull,
    kNotRunning,       ///< Submitted before Start or after Stop.
    kDrained,          ///< Still queued when Stop ran.
    kEvicted,          ///< Deadline expired or cancelled while queued.
    kInjectedFailure,  ///< The `service.dispatch` failpoint failed it.
    kRanOk,
    kRanFailed,
  };

  void WorkerLoop();
  /// Runs a dispatched request (failpoint, then the runner under a trace of
  /// its own) and finishes it.
  void Run(Queued& item, ServiceResponse response);
  /// The one place a request is accounted: bumps the instance counter, the
  /// mira.service.* counter and the tenant slice, releases the inflight-table
  /// slot, writes the request's one query-log entry (promoting a slow run's
  /// trace under its id) and the latency exemplars, then runs the callback.
  void Finish(Queued& item, Exit exit, ServiceResponse response);
  size_t QueueDepthLocked() const MIRA_REQUIRES(mu_);
  DispatchMode ModeFor(size_t queue_depth) const;
  /// The cached slice for `tenant`, creating it on first sight (the slice
  /// directory is capped at options_.max_tenant_slices; overflow tenants
  /// share "_other").
  TenantMetrics* TenantSlice(const std::string& tenant);

  ServiceOptions options_;
  QueryRunner runner_;
  AdmissionController admission_;

  mutable Mutex mu_;
  CondVar work_cv_;
  bool running_ MIRA_GUARDED_BY(mu_) = false;
  /// Priority -> FIFO of that priority; highest priority dispatches first.
  std::map<int, std::deque<Queued>, std::greater<int>> queues_
      MIRA_GUARDED_BY(mu_);
  uint64_t submitted_ MIRA_GUARDED_BY(mu_) = 0;
  uint64_t admitted_ MIRA_GUARDED_BY(mu_) = 0;
  /// Finished requests, indexed by RequestOutcome.
  std::array<uint64_t, kOutcomes> outcomes_ MIRA_GUARDED_BY(mu_){};
  uint64_t preemptive_ MIRA_GUARDED_BY(mu_) = 0;
  /// Requests currently running in workers, keyed by dispatch sequence; its
  /// size is the number of busy slots the fan-out cap counts.
  uint64_t next_dispatch_id_ MIRA_GUARDED_BY(mu_) = 0;
  std::map<uint64_t, InflightInfo> inflight_requests_ MIRA_GUARDED_BY(mu_);

  /// Separate lock for the tenant-slice directory: Submit resolves the slice
  /// before taking mu_ (resolution touches the registry lock), so watchers of
  /// mu_ never wait on registry I/O.
  mutable Mutex tenant_mu_;
  std::map<std::string, std::unique_ptr<TenantMetrics>> tenant_metrics_
      MIRA_GUARDED_BY(tenant_mu_);

  std::vector<std::thread> workers_;

  /// Cached metric handles (mira.service.*) — resolved once, then lock-free.
  struct ServiceMetrics {
    obs::Counter* admitted;
    obs::Counter* completed;
    obs::Counter* errors;
    obs::Counter* rejected_quota;
    obs::Counter* rejected_queue_full;
    obs::Counter* evicted_deadline;
    obs::Counter* degraded_preemptive;
    obs::Gauge* queue_depth;
    obs::Gauge* inflight;
    obs::Gauge* mode_fanout;
    obs::Histogram* queue_ms;
    obs::Histogram* latency_ms;
    /// mira.service.method.<m>.dispatched, indexed by Method enumerator.
    std::array<obs::Counter*, 3> method_dispatched;
  };
  ServiceMetrics metrics_;
};

}  // namespace mira::service

#endif  // MIRA_SERVICE_DISCOVERY_SERVICE_H_
