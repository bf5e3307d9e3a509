#include "service/monitor.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

namespace mira::service {

namespace {

obs::WindowedMetrics::Options WindowOptions(const ServiceMonitor::Options& options) {
  obs::WindowedMetrics::Options window_options;
  window_options.bucket_seconds = options.bucket_seconds;
  window_options.ring_buckets = options.ring_buckets;
  return window_options;
}

obs::SloEngine::Options SloOptions(const ServiceMonitor::Options& options) {
  obs::SloEngine::Options slo_options;
  slo_options.eval_interval_s = options.eval_interval_s;
  return slo_options;
}

}  // namespace

ServiceMonitor::ServiceMonitor(DiscoveryService* service, Options options)
    : options_(std::move(options)),
      service_(service),
      windows_(WindowOptions(options_)),
      slo_(&windows_, SloOptions(options_)) {
  // Accepted-request latency: "p<1 - target> of end-to-end latency stays
  // under threshold". Counts only dispatched requests (sheds never reach the
  // latency histogram).
  obs::SloObjective latency;
  latency.name = "latency_p99";
  latency.kind = obs::SloObjective::Kind::kLatency;
  latency.histogram = "mira.service.latency_ms";
  latency.threshold_ms = options_.latency_threshold_ms;
  latency.target_fraction = options_.latency_target_fraction;
  latency.fast_window_s = options_.fast_window_s;
  latency.slow_window_s = options_.slow_window_s;
  latency.warn_burn = options_.warn_burn;
  latency.breach_burn = options_.breach_burn;
  slo_.AddObjective(latency);

  // Shed fraction: rejects (quota + queue-full) over all admission verdicts.
  obs::SloObjective shed;
  shed.name = "shed_fraction";
  shed.kind = obs::SloObjective::Kind::kRatio;
  shed.bad_counters = {"mira.service.rejected.quota",
                       "mira.service.rejected.queue_full"};
  shed.total_counters = {"mira.service.admitted",
                         "mira.service.rejected.quota",
                         "mira.service.rejected.queue_full"};
  shed.target_fraction = options_.shed_target_fraction;
  shed.fast_window_s = options_.fast_window_s;
  shed.slow_window_s = options_.slow_window_s;
  shed.warn_burn = options_.warn_burn;
  shed.breach_burn = options_.breach_burn;
  slo_.AddObjective(shed);

  // Per-configured-tenant shed objectives over the tenant metric slices.
  for (const std::string& tenant : options_.tenants) {
    const std::string prefix = "mira.tenant." + tenant + ".";
    obs::SloObjective tenant_shed = shed;
    tenant_shed.name = "shed_fraction_" + tenant;
    tenant_shed.bad_counters = {prefix + "rejected"};
    tenant_shed.total_counters = {prefix + "admitted", prefix + "rejected"};
    slo_.AddObjective(tenant_shed);
    // Extra windowed series so /tenantz can show live per-tenant rates.
    windows_.TrackCounter(prefix + "completed");
  }
  windows_.TrackCounter("mira.service.completed");

  if (options_.enable_watchdog) {
    watchdog_ = std::make_unique<StuckQueryWatchdog>(
        [service] { return service->InflightSnapshot(); }, options_.watchdog);
  }
}

ServiceMonitor::~ServiceMonitor() { Stop(); }

void ServiceMonitor::Start() {
  slo_.Start();
  if (watchdog_ != nullptr) watchdog_->Start();
}

void ServiceMonitor::Stop() {
  if (watchdog_ != nullptr) watchdog_->Stop();
  slo_.Stop();
}

std::string ServiceMonitor::RenderSlozz() const {
  std::string body;
  body.append(StrFormat("slo objectives (evaluations: %llu)\n",
                        static_cast<unsigned long long>(slo_.evaluations())));
  for (const obs::SloStatus& status : slo_.Statuses()) {
    body.append(StrFormat(
        "  %s: %s burn_fast %.2f burn_slow %.2f bad_fraction %.4f "
        "(target %.4f) events_fast %llu%s\n",
        status.name.c_str(),
        std::string(obs::SloStateToString(status.state)).c_str(),
        status.burn_fast, status.burn_slow, status.bad_fraction_fast,
        status.target_fraction,
        static_cast<unsigned long long>(status.total_fast),
        status.measurable ? "" : " [not yet measurable]"));
  }
  body.append("transitions (oldest first)\n");
  const std::vector<obs::SloTransition> history = slo_.History();
  if (history.empty()) body.append("  (none)\n");
  for (const obs::SloTransition& transition : history) {
    body.append(StrFormat(
        "  [t=%.1f] %s %s -> %s (burn_fast %.2f burn_slow %.2f)\n",
        transition.time_s, transition.objective.c_str(),
        std::string(obs::SloStateToString(transition.from)).c_str(),
        std::string(obs::SloStateToString(transition.to)).c_str(),
        transition.burn_fast, transition.burn_slow));
  }
  body.append("watchdog\n");
  if (watchdog_ == nullptr) {
    body.append("  (disabled)\n");
  } else {
    body.append(
        StrFormat("  scans %llu stuck %llu\n",
                  static_cast<unsigned long long>(watchdog_->scans()),
                  static_cast<unsigned long long>(watchdog_->total_stuck())));
    for (const StuckReport& report : watchdog_->RecentReports()) {
      body.append(StrFormat(
          "  request %llu tenant %s method %s running %.1f ms budget %.1f "
          "ms\n",
          static_cast<unsigned long long>(report.request_id),
          report.tenant.c_str(), report.method.c_str(), report.running_ms,
          report.budget_ms));
    }
  }
  return body;
}

std::string ServiceMonitor::SlozzJson() const {
  std::string out = "{\n";
  out.append(StrFormat("  \"evaluations\": %llu,\n",
                       static_cast<unsigned long long>(slo_.evaluations())));
  out.append("  \"statuses\": [");
  bool first = true;
  for (const obs::SloStatus& status : slo_.Statuses()) {
    if (!first) out.append(",");
    first = false;
    out.append(StrFormat(
        "\n    {\"name\": \"%s\", \"state\": \"%s\", \"burn_fast\": %.6g, "
        "\"burn_slow\": %.6g, \"bad_fraction_fast\": %.6g, "
        "\"total_fast\": %llu, \"target_fraction\": %.6g, "
        "\"measurable\": %s}",
        obs::JsonEscape(status.name).c_str(),
        std::string(obs::SloStateToString(status.state)).c_str(),
        status.burn_fast, status.burn_slow, status.bad_fraction_fast,
        static_cast<unsigned long long>(status.total_fast),
        status.target_fraction, status.measurable ? "true" : "false"));
  }
  out.append(first ? "],\n" : "\n  ],\n");
  out.append("  \"transitions\": [");
  first = true;
  for (const obs::SloTransition& transition : slo_.History()) {
    if (!first) out.append(",");
    first = false;
    out.append(StrFormat(
        "\n    {\"time_s\": %.6f, \"objective\": \"%s\", \"from\": \"%s\", "
        "\"to\": \"%s\", \"burn_fast\": %.6g, \"burn_slow\": %.6g}",
        transition.time_s, obs::JsonEscape(transition.objective).c_str(),
        std::string(obs::SloStateToString(transition.from)).c_str(),
        std::string(obs::SloStateToString(transition.to)).c_str(),
        transition.burn_fast, transition.burn_slow));
  }
  out.append(first ? "],\n" : "\n  ],\n");
  if (watchdog_ == nullptr) {
    out.append("  \"watchdog\": null\n");
  } else {
    out.append(
        StrFormat("  \"watchdog\": {\"scans\": %llu, \"stuck\": %llu}\n",
                  static_cast<unsigned long long>(watchdog_->scans()),
                  static_cast<unsigned long long>(watchdog_->total_stuck())));
  }
  out.append("}\n");
  return out;
}

std::string ServiceMonitor::RenderTenantz() const {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  std::string body;
  body.append("tenants (admission view)\n");
  std::set<std::string> names(options_.tenants.begin(),
                              options_.tenants.end());
  const std::vector<AdmissionController::TenantState> tenants =
      service_->TenantStates();
  for (const AdmissionController::TenantState& tenant : tenants) {
    names.insert(tenant.tenant);
  }
  body.append(RenderTenantStates(tenants));
  body.append("slices (cumulative mira.tenant.* counters)\n");
  if (names.empty()) body.append("  (none seen yet)\n");
  for (const std::string& name : names) {
    body.append("  " + name + ":");
    for (const char* field : {"admitted", "completed", "rejected", "evicted",
                              "failed", "preemptive"}) {
      const obs::Counter& counter =
          registry.GetCounter("mira.tenant." + name + "." + field);
      body.append(StrFormat(" %s %llu", field,
                            static_cast<unsigned long long>(counter.value())));
    }
    body.append("\n");
  }
  body.append(StrFormat("rates (trailing %.0fs window)\n",
                        options_.fast_window_s));
  bool any_rate = false;
  for (const std::string& tracked : windows_.TrackedCounters()) {
    const obs::WindowedMetrics::WindowRate rate =
        windows_.CounterRate(tracked, options_.fast_window_s);
    if (!rate.ok) continue;
    any_rate = true;
    body.append(StrFormat("  %s: %.2f/s over %.1fs\n", tracked.c_str(),
                          rate.rate_per_s, rate.covered_s));
  }
  if (!any_rate) body.append("  (no window data yet)\n");
  return body;
}

void ServiceMonitor::RegisterDebugPages(obs::DebugServer* server) {
  if (server == nullptr) return;
  server->AddPage("/slozz", "SLO burn rates, transitions, stuck queries",
                  [this] { return RenderSlozz(); });
  server->AddPage("/slozz.json", "machine-readable /slozz",
                  [this] { return SlozzJson(); });
  server->AddPage("/tenantz", "per-tenant quotas, metric slices, rates",
                  [this] { return RenderTenantz(); });
}

}  // namespace mira::service
