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
  auto counter = [&registry](const std::string& name) {
    return &registry.GetCounter("mira.service." + name);
  };
  metrics_.admitted = counter("admitted");
  metrics_.completed = counter("completed");
  metrics_.errors = counter("errors");
  metrics_.rejected_quota = counter("rejected.quota");
  metrics_.rejected_queue_full = counter("rejected.queue_full");
  metrics_.evicted_deadline = counter("evicted.deadline");
  metrics_.degraded_preemptive = counter("degraded.preemptive");
  metrics_.queue_depth = &registry.GetGauge("mira.service.queue_depth");
  metrics_.inflight = &registry.GetGauge("mira.service.inflight");
  metrics_.mode_fanout = &registry.GetGauge("mira.service.mode.fanout");
  metrics_.queue_ms = &registry.GetHistogram("mira.service.queue_ms");
  metrics_.latency_ms = &registry.GetHistogram("mira.service.latency_ms");
  for (discovery::Method method :
       {discovery::Method::kExhaustive, discovery::Method::kAnns,
        discovery::Method::kCts}) {
    metrics_.method_dispatched[static_cast<size_t>(method)] = counter(
        "method." + ToLower(discovery::MethodToString(method)) + ".dispatched");
  }
}

DiscoveryService::~DiscoveryService() { Stop(); }

size_t DiscoveryService::QueueDepthLocked() const {
  size_t depth = 0;
  for (const auto& [priority, fifo] : queues_) depth += fifo.size();
  return depth;
}

DispatchMode DiscoveryService::ModeFor(size_t queue_depth) const {
  return queue_depth <= options_.fanout_queue_threshold
             ? DispatchMode::kFanOut
             : DispatchMode::kThroughput;
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
    // RequestOutcome order.
    const char* outcome_names[kOutcomes] = {"completed", "rejected", "evicted",
                                            "failed"};
    for (size_t i = 0; i < kOutcomes; ++i) {
      slice->outcomes[i] = &registry.GetCounter(prefix + outcome_names[i]);
    }
    slice->preemptive = &registry.GetCounter(prefix + "preemptive");
    slice->priority = &registry.GetGauge(prefix + "priority");
    slice->latency_ms = &registry.GetHistogram(prefix + "latency_ms");
    slice->priority->Set(
        static_cast<double>(admission_.QuotaFor(name).priority));
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
  decltype(queues_) drained;
  {
    MutexLock lock(mu_);
    drained.swap(queues_);
    metrics_.queue_depth->Set(0.0);
  }
  for (auto& [priority, fifo] : drained) {
    for (Queued& item : fifo) {
      ServiceResponse response;
      response.status =
          Status::Unavailable("service: shutting down before dispatch");
      Finish(item, Exit::kDrained, std::move(response));
    }
  }
}

void DiscoveryService::Submit(ServiceRequest request, Callback done) {
  // Admit: the tenant's slice and priority are resolved once, here, and ride
  // with the request to Finish (the priority comes with the admission
  // decision).
  Queued item;
  item.tenant = TenantSlice(request.tenant);
  item.request = std::move(request);
  item.done = std::move(done);
  AdmissionDecision decision;
  bool queued = false;
  {
    MutexLock lock(mu_);
    ++submitted_;
    // Admission under mu_ keeps the depth the controller sees exact, so the
    // queue bound is strict even with concurrent submitters. Lock order is
    // service mu_ -> controller mu_ (never reversed).
    decision = admission_.Admit(item.request.tenant, QueueDepthLocked(),
                                MonotonicSeconds());
    item.priority = decision.priority;
    if (decision.outcome == AdmitOutcome::kAdmit && running_) {
      ++admitted_;
      metrics_.admitted->Increment();
      item.tenant->admitted->Increment();
      item.enqueue_s = MonotonicSeconds();
      queues_[item.priority].push_back(std::move(item));
      metrics_.queue_depth->Set(static_cast<double>(QueueDepthLocked()));
      queued = true;
    }
  }
  if (queued) {
    work_cv_.NotifyAll();
    return;
  }

  // Rejection (or submit-after-stop): the callback runs inline on the
  // submitting thread — no service resources are held by a shed request.
  ServiceResponse response;
  response.status = std::move(decision.status);
  response.retry_after_ms = decision.retry_after_ms;
  Exit exit = Exit::kNotRunning;
  switch (decision.outcome) {
    case AdmitOutcome::kAdmit:
      response.status = Status::Unavailable(
          "service: not running (Start not called or Stop already ran)");
      break;
    case AdmitOutcome::kRejectQuota:
      exit = Exit::kRejectedQuota;
      break;
    case AdmitOutcome::kRejectQueueFull:
      exit = Exit::kRejectedQueueFull;
      break;
  }
  Finish(item, exit, std::move(response));
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
    ServiceResponse response;
    bool evict = false;
    // Dispatch: dequeue, eviction check, pressure ladder and inflight-table
    // registration in one critical section.
    {
      MutexLock lock(mu_);
      size_t depth = 0;
      for (;;) {
        if (!running_) return;
        depth = QueueDepthLocked();
        // A shallow queue holds extra workers back so the few running
        // queries keep the engine's intra-query ParallelFor fan-out to
        // themselves. A deepening queue (or a finished run) re-wakes us.
        if (depth > 0 &&
            (ModeFor(depth) == DispatchMode::kThroughput ||
             inflight_requests_.size() < options_.fanout_inflight_limit)) {
          break;
        }
        work_cv_.Wait(lock);
      }
      response.mode = ModeFor(depth);
      auto it = queues_.begin();
      item = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) queues_.erase(it);
      metrics_.queue_depth->Set(static_cast<double>(QueueDepthLocked()));
      metrics_.mode_fanout->Set(
          response.mode == DispatchMode::kFanOut ? 1.0 : 0.0);

      // Eviction: a budget that died in the queue never reaches the engine.
      QueryControl& control = item.request.options.control;
      evict = control.cancel.cancelled() || control.deadline.expired();
      if (!evict) {
        // Pressure ladder: sustained depth means later queued requests are
        // already aging; tighten this one's budget so the engine degrades
        // now instead of blowing its (and everyone else's) deadline.
        const size_t pressure_threshold = std::max<size_t>(
            1, static_cast<size_t>(options_.pressure_degrade_fraction *
                                   static_cast<double>(
                                       options_.admission.max_queue_depth)));
        if (depth >= pressure_threshold) {
          response.preemptively_degraded = true;
          control.deadline =
              control.deadline.infinite()
                  ? Deadline::After(options_.pressure_budget_ms)
                  : Deadline::After(control.deadline.remaining_ms() *
                                    options_.pressure_budget_scale);
          ++preemptive_;
          metrics_.degraded_preemptive->Increment();
          item.tenant->preemptive->Increment();
        }
        // Register in the inflight table: it holds the run's slot, and the
        // stuck-query watchdog sees the request (and its budget) there.
        item.dispatch_id = ++next_dispatch_id_;
        InflightInfo& info = inflight_requests_[item.dispatch_id];
        info.id = item.dispatch_id;
        info.tenant = item.request.tenant;
        info.method = item.request.method;
        info.start_s = MonotonicSeconds();
        info.budget_ms =
            control.deadline.infinite() ? 0.0 : control.deadline.remaining_ms();
        info.preemptively_degraded = response.preemptively_degraded;
        metrics_.inflight->Set(static_cast<double>(inflight_requests_.size()));
      }
    }
    response.queue_ms = (MonotonicSeconds() - item.enqueue_s) * 1000.0;
    metrics_.queue_ms->Record(response.queue_ms);

    if (evict) {
      response.status =
          item.request.options.control.cancel.cancelled()
              ? Status::Cancelled("service: request cancelled while queued")
              : Status::DeadlineExceeded(
                    "service: deadline expired in queue (evicted, never ran)");
      Finish(item, Exit::kEvicted, std::move(response));
      continue;
    }

    Run(item, std::move(response));
  }
}

void DiscoveryService::Run(Queued& item, ServiceResponse response) {
  // Fault injection on the dispatch path: an injected error fails this
  // request; an injected delay stalls this worker (deterministic queue
  // pressure for the robustness matrix).
  if (Status injected = failpoint::Trigger("service.dispatch");
      !injected.ok()) {
    response.status = std::move(injected);
    Finish(item, Exit::kInjectedFailure, std::move(response));
    return;
  }
  metrics_.method_dispatched[static_cast<size_t>(item.request.method)]
      ->Increment();
  const double run_start_s = MonotonicSeconds();
  Result<discovery::Ranking> result = runner_(item.request);
  response.run_ms = (MonotonicSeconds() - run_start_s) * 1000.0;
  if (!result.ok()) {
    response.status = result.status();
    Finish(item, Exit::kRanFailed, std::move(response));
    return;
  }
  response.ranking = std::move(result).ValueOrDie();
  Finish(item, Exit::kRanOk, std::move(response));
}

void DiscoveryService::Finish(Queued& item, Exit exit,
                              ServiceResponse response) {
  obs::Counter* service_counter = metrics_.errors;
  response.outcome = RequestOutcome::kFailed;
  switch (exit) {
    case Exit::kRejectedQuota:
      response.outcome = RequestOutcome::kRejected;
      service_counter = metrics_.rejected_quota;
      break;
    case Exit::kRejectedQueueFull:
      response.outcome = RequestOutcome::kRejected;
      service_counter = metrics_.rejected_queue_full;
      break;
    case Exit::kEvicted:
      response.outcome = RequestOutcome::kEvicted;
      service_counter = metrics_.evicted_deadline;
      break;
    case Exit::kRanOk:
      response.outcome = RequestOutcome::kCompleted;
      service_counter = metrics_.completed;
      break;
    case Exit::kNotRunning:
    case Exit::kDrained:
    case Exit::kInjectedFailure:
    case Exit::kRanFailed:
      break;
  }
  const size_t outcome = static_cast<size_t>(response.outcome);
  {
    MutexLock lock(mu_);
    ++outcomes_[outcome];
    if (item.dispatch_id != 0) {
      inflight_requests_.erase(item.dispatch_id);
      metrics_.inflight->Set(static_cast<double>(inflight_requests_.size()));
    }
  }
  // Release: a freed slot can shift the regime and unblock held-back workers.
  if (item.dispatch_id != 0) work_cv_.NotifyAll();
  service_counter->Increment();
  item.tenant->outcomes[outcome]->Increment();

  const ServiceRequest& request = item.request;
  uint64_t log_id = 0;
  if (options_.record_query_log) {
    obs::QueryLogEntry entry;
    entry.SetMethod(discovery::MethodToString(request.method));
    entry.SetTenant(request.tenant);
    entry.priority = static_cast<int8_t>(item.priority);
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
  // Only requests the runner saw count toward latency; the query-log id
  // rides along as the exemplar, so /metricsz tail buckets name the request.
  if (exit == Exit::kRanOk || exit == Exit::kRanFailed) {
    const double total_ms = response.queue_ms + response.run_ms;
    metrics_.latency_ms->RecordWithExemplar(total_ms, log_id);
    item.tenant->latency_ms->RecordWithExemplar(total_ms, log_id);
  }
  if (item.done) item.done(std::move(response));
}

DiscoveryService::Stats DiscoveryService::GetStats() const {
  Stats stats;
  MutexLock lock(mu_);
  stats.queue_depth = QueueDepthLocked();
  stats.inflight = inflight_requests_.size();
  stats.submitted = submitted_;
  stats.admitted = admitted_;
  stats.completed = outcomes_[static_cast<size_t>(RequestOutcome::kCompleted)];
  stats.rejected = outcomes_[static_cast<size_t>(RequestOutcome::kRejected)];
  stats.evicted = outcomes_[static_cast<size_t>(RequestOutcome::kEvicted)];
  stats.failed = outcomes_[static_cast<size_t>(RequestOutcome::kFailed)];
  stats.preemptively_degraded = preemptive_;
  stats.mode = ModeFor(stats.queue_depth);
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
  const std::pair<const char*, uint64_t> counters[] = {
      {"submitted", stats.submitted},
      {"admitted", stats.admitted},
      {"completed", stats.completed},
      {"rejected (shed)", stats.rejected},
      {"evicted (deadline in queue)", stats.evicted},
      {"failed", stats.failed},
      {"preemptively_degraded", stats.preemptively_degraded}};
  for (const auto& [label, value] : counters) {
    body.append(StrFormat("  %s: %llu\n", label,
                          static_cast<unsigned long long>(value)));
  }
  body.append("tenants\n");
  body.append(RenderTenantStates(TenantStates()));
  return body;
}

void DiscoveryService::RegisterDebugPages(obs::DebugServer* server) {
  if (server == nullptr) return;
  server->AddPage("/servicez",
                  "service queue, per-tenant quotas, shed/evict counters",
                  [this] { return RenderServicez(); });
}

}  // namespace mira::service
