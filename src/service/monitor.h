#ifndef MIRA_SERVICE_MONITOR_H_
#define MIRA_SERVICE_MONITOR_H_

#include <string>
#include <vector>

#include "obs/debug_server.h"
#include "obs/slo.h"
#include "obs/windowed.h"
#include "service/discovery_service.h"
#include "service/watchdog.h"

namespace mira::service {

/// Self-monitoring bundle for one DiscoveryService: a WindowedMetrics ticker
/// over the service and tenant counters, an SloEngine evaluating the default
/// service objectives (accepted-latency p99 and shed fraction, plus one shed
/// objective per configured tenant), and a StuckQueryWatchdog over the
/// service's inflight table. Surfaces as the /slozz, /slozz.json and
/// /tenantz debugz pages.
///
/// Construction wires everything up; Start()/Stop() run the background
/// threads. Tests drive the pieces deterministically through windows()/slo()
/// (Step) and watchdog() (ScanOnce) without starting anything.
class ServiceMonitor {
 public:
  struct Options {
    /// Window engine shape. Defaults suit a long-running server; benches use
    /// sub-second buckets so SLOs react within the run.
    double bucket_seconds = 5.0;
    size_t ring_buckets = 64;
    double eval_interval_s = 1.0;

    /// Shared multi-window alerting shape for the default objectives.
    double fast_window_s = 60.0;
    double slow_window_s = 300.0;
    double warn_burn = 1.0;
    double breach_burn = 10.0;

    /// "p99 of accepted-request latency ≤ threshold".
    double latency_threshold_ms = 50.0;
    double latency_target_fraction = 0.01;
    /// "fraction of submissions shed at admission ≤ target".
    double shed_target_fraction = 0.05;

    /// Tenants that get their own shed-fraction objective and windowed
    /// rates on /tenantz (beyond the cumulative counters every seen tenant
    /// gets). Tracked counters must exist by name, so this is config, not
    /// discovery.
    std::vector<std::string> tenants;

    StuckQueryWatchdog::Options watchdog;
  };

  /// `service` is not owned and must outlive the monitor.
  ServiceMonitor(DiscoveryService* service, Options options);
  ~ServiceMonitor();

  ServiceMonitor(const ServiceMonitor&) = delete;
  ServiceMonitor& operator=(const ServiceMonitor&) = delete;

  /// Starts the SLO evaluation thread (which ticks the windows) and the
  /// watchdog. Stop() is idempotent and runs from the destructor.
  void Start();
  void Stop();

  obs::WindowedMetrics& windows() { return windows_; }
  obs::SloEngine& slo() { return slo_; }
  StuckQueryWatchdog& watchdog() { return watchdog_; }

  /// /slozz — objective states, burn rates, transition history, watchdog
  /// reports (plain text).
  std::string RenderSlozz() const;
  /// /slozz.json — the same, machine-readable (its own page because debugz
  /// renderers receive no query parameters).
  std::string SlozzJson() const;
  /// /tenantz — per-tenant admission state, cumulative slice counters, and
  /// windowed rates for the configured tenants.
  std::string RenderTenantz() const;

  /// Registers the three pages. No-op under MIRA_OBS=OFF.
  void RegisterDebugPages(obs::DebugServer* server);

  const Options& options() const { return options_; }

 private:
  Options options_;
  DiscoveryService* service_;
  obs::WindowedMetrics windows_;
  obs::SloEngine slo_;
  StuckQueryWatchdog watchdog_;
};

}  // namespace mira::service

#endif  // MIRA_SERVICE_MONITOR_H_
