#include "service/admission.h"

#include <algorithm>
#include <limits>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace mira::service {

TokenBucket::TokenBucket(double refill_qps, double burst)
    : refill_qps_(std::max(0.0, refill_qps)),
      burst_(std::max(1.0, burst)),
      tokens_(burst_),
      last_refill_s_(0.0) {}

double TokenBucket::RefilledTokens(double now_s) const {
  const double elapsed = std::max(0.0, now_s - last_refill_s_);
  return std::min(burst_, tokens_ + elapsed * refill_qps_);
}

bool TokenBucket::TryAcquire(double now_s) {
  tokens_ = RefilledTokens(now_s);
  last_refill_s_ = std::max(last_refill_s_, now_s);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::SecondsUntilToken(double now_s) const {
  const double tokens = RefilledTokens(now_s);
  if (tokens >= 1.0) return 0.0;
  if (refill_qps_ <= 0.0) return std::numeric_limits<double>::infinity();
  return (1.0 - tokens) / refill_qps_;
}

double TokenBucket::Tokens(double now_s) const { return RefilledTokens(now_s); }

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)), retry_policy_(options_.retry) {}

const TenantQuota& AdmissionController::QuotaFor(
    const std::string& tenant) const {
  auto it = options_.tenant_quotas.find(tenant);
  return it == options_.tenant_quotas.end() ? options_.default_quota
                                            : it->second;
}

AdmissionDecision AdmissionController::Admit(const std::string& tenant,
                                             size_t queue_depth,
                                             double now_s) {
  const TenantQuota& quota = QuotaFor(tenant);
  AdmissionDecision decision;
  decision.priority = quota.priority;

  // Forced shed: an armed `service.admit` failpoint rejects with whatever
  // status it injects (typed codes pass through to the caller untouched).
  if (Status injected = failpoint::Trigger("service.admit"); !injected.ok()) {
    decision.outcome = AdmitOutcome::kRejectQueueFull;
    decision.retry_after_ms = retry_policy_.BackoffMsForAttempt(1);
    decision.status = std::move(injected);
    MutexLock lock(mu_);
    auto [it, inserted] = buckets_.try_emplace(
        tenant, Bucket{TokenBucket(quota.refill_qps, quota.burst)});
    ++it->second.rejected;
    return decision;
  }

  MutexLock lock(mu_);
  auto [it, inserted] = buckets_.try_emplace(
      tenant, Bucket{TokenBucket(quota.refill_qps, quota.burst)});
  Bucket& bucket = it->second;

  if (queue_depth >= options_.max_queue_depth) {
    decision.outcome = AdmitOutcome::kRejectQueueFull;
    decision.retry_after_ms = retry_policy_.BackoffMsForAttempt(1);
    decision.status = Status::ResourceExhausted(StrFormat(
        "admission: queue full (%zu/%zu); retry after %.1f ms", queue_depth,
        options_.max_queue_depth, decision.retry_after_ms));
    ++bucket.rejected;
    return decision;
  }

  if (!bucket.bucket.TryAcquire(now_s)) {
    decision.outcome = AdmitOutcome::kRejectQuota;
    decision.retry_after_ms =
        std::max(bucket.bucket.SecondsUntilToken(now_s) * 1000.0,
                 retry_policy_.BackoffMsForAttempt(1));
    decision.status = Status::ResourceExhausted(StrFormat(
        "admission: tenant '%s' quota exhausted (%.1f qps, burst %.0f); "
        "retry after %.1f ms",
        tenant.c_str(), quota.refill_qps, quota.burst,
        decision.retry_after_ms));
    ++bucket.rejected;
    return decision;
  }

  ++bucket.admitted;
  return decision;
}

std::vector<AdmissionController::TenantState> AdmissionController::TenantStates(
    double now_s) const {
  std::vector<TenantState> out;
  MutexLock lock(mu_);
  out.reserve(buckets_.size());
  for (const auto& [tenant, bucket] : buckets_) {
    const TenantQuota& quota = QuotaFor(tenant);
    TenantState state;
    state.tenant = tenant;
    state.tokens = bucket.bucket.Tokens(now_s);
    state.burst = quota.burst;
    state.refill_qps = quota.refill_qps;
    state.priority = quota.priority;
    state.admitted = bucket.admitted;
    state.rejected = bucket.rejected;
    out.push_back(std::move(state));
  }
  return out;
}

std::string RenderTenantStates(
    const std::vector<AdmissionController::TenantState>& tenants) {
  if (tenants.empty()) return "  (none seen yet)\n";
  std::string body;
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

}  // namespace mira::service
