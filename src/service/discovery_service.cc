#include "service/discovery_service.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/query_log.h"

namespace mira::service {

std::string_view DispatchModeToString(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kFanOut:
      return "fanout";
    case DispatchMode::kThroughput:
      return "throughput";
  }
  return "unknown";
}

DiscoveryService::DiscoveryService(const discovery::DiscoveryEngine* engine,
                                   ServiceOptions options)
    : DiscoveryService(
          // SearchTraced (not Search) so sampled slow queries get their span
          // tree promoted into /tracez — the exemplar on the latency
          // histogram then resolves to an inspectable trace.
          [engine](const ServiceRequest& request) -> Result<discovery::Ranking> {
            Result<discovery::TracedRanking> traced = engine->SearchTraced(
                request.method, request.query, request.options);
            if (!traced.ok()) return traced.status();
            discovery::TracedRanking out = traced.MoveValue();
            return std::move(out.ranking);
          },
          std::move(options)) {}

DiscoveryService::DiscoveryService(QueryRunner runner, ServiceOptions options)
    : options_(std::move(options)),
      runner_(std::move(runner)),
      admission_(options_.admission) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  metrics_.admitted = &registry.GetCounter("mira.service.admitted");
  metrics_.completed = &registry.GetCounter("mira.service.completed");
  metrics_.errors = &registry.GetCounter("mira.service.errors");
  metrics_.rejected_quota =
      &registry.GetCounter("mira.service.rejected.quota");
  metrics_.rejected_queue_full =
      &registry.GetCounter("mira.service.rejected.queue_full");
  metrics_.evicted_deadline =
      &registry.GetCounter("mira.service.evicted.deadline");
  metrics_.degraded_preemptive =
      &registry.GetCounter("mira.service.degraded.preemptive");
  metrics_.queue_depth = &registry.GetGauge("mira.service.queue_depth");
  metrics_.inflight = &registry.GetGauge("mira.service.inflight");
  metrics_.mode_fanout = &registry.GetGauge("mira.service.mode.fanout");
  metrics_.queue_ms = &registry.GetHistogram("mira.service.queue_ms");
  metrics_.latency_ms = &registry.GetHistogram("mira.service.latency_ms");
  for (discovery::Method method :
       {discovery::Method::kExhaustive, discovery::Method::kAnns,
        discovery::Method::kCts}) {
    metrics_.method_dispatched[static_cast<size_t>(method)] =
        &registry.GetCounter(
            "mira.service.method." +
            ToLower(discovery::MethodToString(method)) + ".dispatched");
  }
}

DiscoveryService::~DiscoveryService() { Stop(); }

size_t DiscoveryService::QueueDepthLocked() const {
  size_t depth = 0;
  for (const auto& [priority, fifo] : queues_) depth += fifo.size();
  return depth;
}

int DiscoveryService::TenantPriority(const std::string& tenant) const {
  const auto it = options_.admission.tenant_quotas.find(tenant);
  return it != options_.admission.tenant_quotas.end()
             ? it->second.priority
             : options_.admission.default_quota.priority;
}

DiscoveryService::TenantMetrics* DiscoveryService::TenantSlice(
    const std::string& tenant) {
  MutexLock lock(tenant_mu_);
  auto it = tenant_metrics_.find(tenant);
  if (it == tenant_metrics_.end()) {
    // Bounded label dimension: past the cap every new tenant shares one
    // overflow slice, so an id flood cannot grow the registry unboundedly.
    std::string name = tenant;
    if (tenant_metrics_.size() >= options_.max_tenant_slices) {
      name = "_other";
      it = tenant_metrics_.find(name);
      if (it != tenant_metrics_.end()) return it->second.get();
    }
    auto slice = std::make_unique<TenantMetrics>();
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    const std::string prefix = "mira.tenant." + name + ".";
    slice->admitted = &registry.GetCounter(prefix + "admitted");
    slice->completed = &registry.GetCounter(prefix + "completed");
    slice->rejected = &registry.GetCounter(prefix + "rejected");
    slice->evicted = &registry.GetCounter(prefix + "evicted");
    slice->failed = &registry.GetCounter(prefix + "failed");
    slice->preemptive = &registry.GetCounter(prefix + "preemptive");
    slice->priority = &registry.GetGauge(prefix + "priority");
    slice->latency_ms = &registry.GetHistogram(prefix + "latency_ms");
    slice->priority->Set(static_cast<double>(TenantPriority(name)));
    it = tenant_metrics_.emplace(std::move(name), std::move(slice)).first;
  }
  return it->second.get();
}

std::vector<DiscoveryService::InflightInfo> DiscoveryService::InflightSnapshot()
    const {
  std::vector<InflightInfo> snapshot;
  MutexLock lock(mu_);
  snapshot.reserve(inflight_requests_.size());
  for (const auto& [id, info] : inflight_requests_) snapshot.push_back(info);
  return snapshot;
}

Status DiscoveryService::Start() {
  {
    MutexLock lock(mu_);
    if (running_) {
      return Status::FailedPrecondition("service: already started");
    }
    running_ = true;
  }
  workers_.reserve(options_.worker_threads);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void DiscoveryService::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_ && workers_.empty() && queues_.empty()) return;
    running_ = false;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Requests admitted but never dispatched complete with kUnavailable: the
  // admission contract ("queued means it will be answered") holds through
  // shutdown.
  std::vector<Queued> drained;
  {
    MutexLock lock(mu_);
    for (auto& [priority, fifo] : queues_) {
      for (Queued& item : fifo) drained.push_back(std::move(item));
    }
    queues_.clear();
    failed_ += drained.size();
  }
  metrics_.queue_depth->Set(0.0);
  for (Queued& item : drained) {
    ServiceResponse response;
    response.status =
        Status::Unavailable("service: shutting down before dispatch");
    response.outcome = RequestOutcome::kFailed;
    metrics_.errors->Increment();
    Complete(item.request, std::move(response), item.done);
  }
}

void DiscoveryService::Submit(ServiceRequest request, Callback done) {
  AdmissionDecision decision;
  const std::string tenant_for_metrics = request.tenant;
  {
    MutexLock lock(mu_);
    ++submitted_;
    // Admission under mu_ keeps the depth the controller sees exact, so the
    // queue bound is strict even with concurrent submitters. Lock order is
    // service mu_ -> controller mu_ (never reversed).
    decision = admission_.Admit(request.tenant, QueueDepthLocked(),
                                MonotonicSeconds());
    if (decision.outcome == AdmitOutcome::kAdmit) {
      if (!running_) {
        decision.status =
            Status::Unavailable("service: not running (Start not called "
                                "or Stop already ran)");
        ++failed_;
      } else {
        ++admitted_count_;
        queues_[decision.priority].push_back(
            Queued{std::move(request), std::move(done), MonotonicSeconds()});
        metrics_.queue_depth->Set(static_cast<double>(QueueDepthLocked()));
      }
    } else {
      ++rejected_;
    }
  }

  if (decision.outcome == AdmitOutcome::kAdmit && decision.status.ok()) {
    metrics_.admitted->Increment();
    // Slice resolution stays outside mu_ (it may take the registry lock);
    // `request` was moved into the queue, hence the saved tenant copy.
    TenantSlice(tenant_for_metrics)->admitted->Increment();
    work_cv_.NotifyAll();
    return;
  }

  // Rejection (or submit-after-stop): the callback runs inline on the
  // submitting thread — no service resources are held by a shed request.
  ServiceResponse response;
  response.status = std::move(decision.status);
  response.outcome = decision.outcome == AdmitOutcome::kAdmit
                         ? RequestOutcome::kFailed  // submit-after-stop
                         : RequestOutcome::kRejected;
  response.retry_after_ms = decision.retry_after_ms;
  if (decision.outcome == AdmitOutcome::kRejectQuota) {
    metrics_.rejected_quota->Increment();
    TenantSlice(tenant_for_metrics)->rejected->Increment();
  } else if (decision.outcome == AdmitOutcome::kRejectQueueFull) {
    metrics_.rejected_queue_full->Increment();
    TenantSlice(tenant_for_metrics)->rejected->Increment();
  } else {
    metrics_.errors->Increment();
    TenantSlice(tenant_for_metrics)->failed->Increment();
  }
  Complete(request, std::move(response), done);
}

ServiceResponse DiscoveryService::Search(ServiceRequest request) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool done MIRA_GUARDED_BY(mu) = false;
    ServiceResponse response MIRA_GUARDED_BY(mu);
  };
  Waiter waiter;
  Submit(std::move(request), [&waiter](ServiceResponse response) {
    MutexLock lock(waiter.mu);
    waiter.response = std::move(response);
    waiter.done = true;
    waiter.cv.NotifyAll();
  });
  MutexLock lock(waiter.mu);
  while (!waiter.done) waiter.cv.Wait(lock);
  return std::move(waiter.response);
}

void DiscoveryService::WorkerLoop() {
  for (;;) {
    Queued item;
    size_t depth_before = 0;
    DispatchMode mode = DispatchMode::kThroughput;
    {
      MutexLock lock(mu_);
      for (;;) {
        if (!running_) return;
        depth_before = QueueDepthLocked();
        if (depth_before == 0) {
          work_cv_.Wait(lock);
          continue;
        }
        mode = depth_before <= options_.fanout_queue_threshold
                   ? DispatchMode::kFanOut
                   : DispatchMode::kThroughput;
        if (mode == DispatchMode::kFanOut &&
            inflight_ >= options_.fanout_inflight_limit) {
          // Shallow queue: hold extra workers back so the few running
          // queries keep the engine's intra-query ParallelFor fan-out to
          // themselves. A deepening queue (or a completion) re-wakes us.
          work_cv_.Wait(lock);
          continue;
        }
        break;
      }
      auto it = queues_.begin();
      item = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) queues_.erase(it);
      ++inflight_;
      metrics_.queue_depth->Set(static_cast<double>(QueueDepthLocked()));
      metrics_.inflight->Set(static_cast<double>(inflight_));
      metrics_.mode_fanout->Set(mode == DispatchMode::kFanOut ? 1.0 : 0.0);
    }

    Dispatch(std::move(item), depth_before, mode);

    {
      MutexLock lock(mu_);
      --inflight_;
      metrics_.inflight->Set(static_cast<double>(inflight_));
    }
    // Completions can shift the regime (fan-out slots free up) and unblock
    // held-back workers.
    work_cv_.NotifyAll();
  }
}

void DiscoveryService::Dispatch(Queued item, size_t depth_at_dispatch,
                                DispatchMode mode) {
  ServiceRequest& request = item.request;
  ServiceResponse response;
  response.mode = mode;
  response.queue_ms = (MonotonicSeconds() - item.enqueue_s) * 1000.0;
  metrics_.queue_ms->Record(response.queue_ms);

  // Eviction: a budget that died in the queue never reaches the engine.
  const QueryControl& control = request.options.control;
  if (control.cancel.cancelled() || control.deadline.expired()) {
    response.outcome = RequestOutcome::kEvicted;
    response.status =
        control.cancel.cancelled()
            ? Status::Cancelled("service: request cancelled while queued")
            : Status::DeadlineExceeded(
                  "service: deadline expired in queue (evicted, never ran)");
    {
      MutexLock lock(mu_);
      ++evicted_;
    }
    metrics_.evicted_deadline->Increment();
    TenantSlice(request.tenant)->evicted->Increment();
    Complete(request, std::move(response), item.done);
    return;
  }

  // Fault injection on the dispatch path: an injected error fails this
  // request; an injected delay stalls this worker (deterministic queue
  // pressure for the robustness matrix).
  if (Status injected = failpoint::Trigger("service.dispatch");
      !injected.ok()) {
    response.outcome = RequestOutcome::kFailed;
    response.status = std::move(injected);
    {
      MutexLock lock(mu_);
      ++failed_;
    }
    metrics_.errors->Increment();
    TenantSlice(request.tenant)->failed->Increment();
    Complete(request, std::move(response), item.done);
    return;
  }

  // Pressure ladder: sustained depth means later queued requests are
  // already aging; tighten this one's budget so the engine degrades now
  // instead of blowing its (and everyone else's) deadline.
  const size_t pressure_threshold = std::max<size_t>(
      1, static_cast<size_t>(options_.pressure_degrade_fraction *
                             static_cast<double>(
                                 options_.admission.max_queue_depth)));
  if (depth_at_dispatch >= pressure_threshold) {
    response.preemptively_degraded = true;
    Deadline& deadline = request.options.control.deadline;
    if (deadline.infinite()) {
      deadline = Deadline::After(options_.pressure_budget_ms);
    } else {
      deadline =
          Deadline::After(deadline.remaining_ms() *
                          options_.pressure_budget_scale);
    }
    {
      MutexLock lock(mu_);
      ++preemptive_;
    }
    metrics_.degraded_preemptive->Increment();
    TenantSlice(request.tenant)->preemptive->Increment();
  }

  TenantMetrics* tenant = TenantSlice(request.tenant);
  metrics_.method_dispatched[static_cast<size_t>(request.method)]->Increment();

  // Register in the inflight table so the stuck-query watchdog can see this
  // request (and its budget) while the engine runs it.
  const double run_start_s = MonotonicSeconds();
  uint64_t dispatch_id = 0;
  {
    MutexLock lock(mu_);
    dispatch_id = ++next_dispatch_id_;
    InflightInfo info;
    info.id = dispatch_id;
    info.tenant = request.tenant;
    info.method = request.method;
    info.start_s = run_start_s;
    const Deadline& deadline = request.options.control.deadline;
    info.budget_ms = deadline.infinite() ? 0.0 : deadline.remaining_ms();
    info.preemptively_degraded = response.preemptively_degraded;
    inflight_requests_.emplace(dispatch_id, std::move(info));
  }
  Result<discovery::Ranking> result = runner_(request);
  response.run_ms = (MonotonicSeconds() - run_start_s) * 1000.0;
  {
    MutexLock lock(mu_);
    inflight_requests_.erase(dispatch_id);
  }

  if (result.ok()) {
    response.ranking = std::move(result).ValueOrDie();
    response.outcome = RequestOutcome::kCompleted;
    {
      MutexLock lock(mu_);
      ++completed_;
    }
    metrics_.completed->Increment();
    tenant->completed->Increment();
  } else {
    response.status = result.status();
    response.outcome = RequestOutcome::kFailed;
    {
      MutexLock lock(mu_);
      ++failed_;
    }
    metrics_.errors->Increment();
    tenant->failed->Increment();
  }
  const double total_ms = response.queue_ms + response.run_ms;
  // Complete() records the query log first so its entry id can ride along as
  // the latency exemplar — /metricsz tail buckets then name the request.
  const uint64_t log_id = Complete(request, std::move(response), item.done);
  metrics_.latency_ms->RecordWithExemplar(total_ms, log_id);
  tenant->latency_ms->RecordWithExemplar(total_ms, log_id);
}

uint64_t DiscoveryService::Complete(const ServiceRequest& request,
                                    ServiceResponse response,
                                    const Callback& done) {
  uint64_t log_id = 0;
  if (options_.record_query_log) {
    obs::QueryLogEntry entry;
    entry.SetMethod(discovery::MethodToString(request.method));
    entry.SetTenant(request.tenant);
    entry.priority = static_cast<int8_t>(TenantPriority(request.tenant));
    entry.ok = response.status.ok();
    entry.k = static_cast<uint32_t>(request.options.top_k);
    entry.result_count = static_cast<uint32_t>(response.ranking.size());
    entry.duration_ms = response.queue_ms + response.run_ms;
    entry.degraded = response.ranking.degraded;
    entry.partial = response.ranking.partial;
    entry.shed = response.outcome == RequestOutcome::kRejected;
    entry.evicted = response.outcome == RequestOutcome::kEvicted;
    entry.preemptive = response.preemptively_degraded;
    const Deadline& deadline = request.options.control.deadline;
    if (!deadline.infinite()) {
      entry.budget_consumed = 1.0 - deadline.FractionRemaining();
    }
    log_id = obs::QueryLog::Global().Record(entry);
  }
  if (done) done(std::move(response));
  return log_id;
}

DiscoveryService::Stats DiscoveryService::GetStats() const {
  Stats stats;
  MutexLock lock(mu_);
  stats.queue_depth = QueueDepthLocked();
  stats.inflight = inflight_;
  stats.submitted = submitted_;
  stats.admitted = admitted_count_;
  stats.completed = completed_;
  stats.rejected = rejected_;
  stats.evicted = evicted_;
  stats.failed = failed_;
  stats.preemptively_degraded = preemptive_;
  stats.mode = stats.queue_depth <= options_.fanout_queue_threshold
                   ? DispatchMode::kFanOut
                   : DispatchMode::kThroughput;
  return stats;
}

std::vector<AdmissionController::TenantState> DiscoveryService::TenantStates()
    const {
  return admission_.TenantStates(MonotonicSeconds());
}

std::string DiscoveryService::RenderServicez() const {
  const Stats stats = GetStats();
  std::string body;
  body.append("service\n");
  body.append(StrFormat("  queue_depth: %zu / %zu\n", stats.queue_depth,
                        options_.admission.max_queue_depth));
  body.append(StrFormat("  inflight: %zu / %zu workers\n", stats.inflight,
                        options_.worker_threads));
  body.append(StrFormat("  mode: %s\n",
                        std::string(DispatchModeToString(stats.mode)).c_str()));
  body.append(StrFormat("  submitted: %llu\n",
                        static_cast<unsigned long long>(stats.submitted)));
  body.append(StrFormat("  admitted: %llu\n",
                        static_cast<unsigned long long>(stats.admitted)));
  body.append(StrFormat("  completed: %llu\n",
                        static_cast<unsigned long long>(stats.completed)));
  body.append(StrFormat("  rejected (shed): %llu\n",
                        static_cast<unsigned long long>(stats.rejected)));
  body.append(StrFormat("  evicted (deadline in queue): %llu\n",
                        static_cast<unsigned long long>(stats.evicted)));
  body.append(StrFormat("  failed: %llu\n",
                        static_cast<unsigned long long>(stats.failed)));
  body.append(
      StrFormat("  preemptively_degraded: %llu\n",
                static_cast<unsigned long long>(stats.preemptively_degraded)));
  body.append("tenants\n");
  std::vector<AdmissionController::TenantState> tenants = TenantStates();
  if (tenants.empty()) body.append("  (none seen yet)\n");
  for (const AdmissionController::TenantState& tenant : tenants) {
    body.append(StrFormat(
        "  %s: tokens %.1f/%.0f refill %.1f qps priority %d admitted %llu "
        "rejected %llu\n",
        tenant.tenant.c_str(), tenant.tokens, tenant.burst, tenant.refill_qps,
        tenant.priority, static_cast<unsigned long long>(tenant.admitted),
        static_cast<unsigned long long>(tenant.rejected)));
  }
  return body;
}

void DiscoveryService::RegisterDebugPages(obs::DebugServer* server) {
  if (server == nullptr) return;
  server->AddPage("/servicez",
                  "service queue, per-tenant quotas, shed/evict counters",
                  [this] { return RenderServicez(); });
}

}  // namespace mira::service
