#ifndef MIRA_SERVICE_ADMISSION_H_
#define MIRA_SERVICE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "common/sync.h"

namespace mira::service {

/// Per-tenant admission budget: a token bucket (sustained rate + burst) plus
/// a scheduling priority for requests that do get in.
struct TenantQuota {
  /// Sustained admissions per second (the bucket refill rate).
  double refill_qps = 50.0;
  /// Bucket capacity: how many requests may arrive back-to-back before the
  /// rate limit bites.
  double burst = 10.0;
  /// Dispatch priority of admitted requests; higher runs first.
  int priority = 0;
};

struct AdmissionOptions {
  /// Upper bound on queued (admitted but not yet dispatched) requests across
  /// all tenants. Admissions beyond it are rejected, never queued.
  size_t max_queue_depth = 64;
  /// Quota for tenants without an explicit entry in `tenant_quotas`.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Source of the retry-after hints attached to rejections: a rejected
  /// caller that sleeps `AdmissionDecision::retry_after_ms` behaves like the
  /// first backoff step of this policy.
  RetryOptions retry;
};

/// Classic token bucket over a caller-supplied monotonic clock (seconds).
/// Not internally synchronized — AdmissionController serializes access under
/// its own lock, and tests drive the clock by hand.
class TokenBucket {
 public:
  TokenBucket(double refill_qps, double burst);

  /// Takes one token if available (refilling for elapsed time first).
  bool TryAcquire(double now_s);

  /// Seconds until a full token will have accrued; 0 when one is available.
  double SecondsUntilToken(double now_s) const;

  /// Current (refilled) token count.
  double Tokens(double now_s) const;

 private:
  double RefilledTokens(double now_s) const;

  double refill_qps_;
  double burst_;
  double tokens_;
  double last_refill_s_;
};

enum class AdmitOutcome {
  kAdmit = 0,
  /// The tenant's token bucket is empty.
  kRejectQuota,
  /// The shared request queue is at max_queue_depth.
  kRejectQueueFull,
};

struct AdmissionDecision {
  AdmitOutcome outcome = AdmitOutcome::kAdmit;
  /// Dispatch priority of the admitting tenant (meaningful on kAdmit).
  int priority = 0;
  /// Suggested client backoff before re-submitting (meaningful on reject):
  /// for quota rejections, when the bucket will hold a token again; never
  /// below the first RetryPolicy backoff step so retry storms stay jittered.
  double retry_after_ms = 0.0;
  /// OK on admit; kResourceExhausted (or a failpoint-injected code) on
  /// rejection, message carrying the retry-after hint.
  Status status = Status::OK();
};

/// Decides, per request, whether the service takes it: the `service.admit`
/// failpoint (forced shed) first, then queue capacity, then the tenant's
/// token bucket. Thread-safe; clock injected per call for testability.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// `queue_depth` is the current admitted-but-undispatched count; `now_s`
  /// a monotonic clock reading in seconds.
  AdmissionDecision Admit(const std::string& tenant, size_t queue_depth,
                          double now_s);

  /// Point-in-time per-tenant quota view for /servicez.
  struct TenantState {
    std::string tenant;
    double tokens = 0.0;
    double burst = 0.0;
    double refill_qps = 0.0;
    int priority = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
  };
  std::vector<TenantState> TenantStates(double now_s) const;

  /// `tenant`'s configured quota, or the default one.
  const TenantQuota& QuotaFor(const std::string& tenant) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  RetryPolicy retry_policy_;

  struct Bucket {
    TokenBucket bucket;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
  };
  mutable Mutex mu_;
  std::map<std::string, Bucket> buckets_ MIRA_GUARDED_BY(mu_);
};

/// The per-tenant admission table that /servicez and /tenantz both print:
/// one indented line per tenant, or "(none seen yet)".
std::string RenderTenantStates(
    const std::vector<AdmissionController::TenantState>& tenants);

}  // namespace mira::service

#endif  // MIRA_SERVICE_ADMISSION_H_
