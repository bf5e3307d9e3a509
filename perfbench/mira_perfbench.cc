// Repository benchmark: runs one named workload against the MIRA
// libraries, checks that every ranking it produced is correct, and prints the
// workload's metrics as one JSON line (the last line of stdout).
//
//   mira_perfbench --workload <cts_query|anns_serve|exs_scan> --seed <n>
//                  --seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is a
// separate run of the same workload that times the calls into each layer's
// public functions from here, collects the span trees DiscoveryEngine::
// SearchTraced returns, and prints the per-layer metrics. --smoke shrinks the
// corpus so the benchmark's own tests finish in seconds. See README.md next to
// this file for the workloads, the metric -> layer table and the bounds.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"
#include "datagen/workload.h"
#include "discovery/engine.h"
#include "discovery/exhaustive_search.h"
#include "ir/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "service/discovery_service.h"

namespace {

using namespace mira;
using Clock = std::chrono::steady_clock;
using discovery::Method;
using discovery::Ranking;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Arguments and workload scale.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace &&
         (args->workload == "cts_query" || args->workload == "anns_serve" ||
          args->workload == "exs_scan");
}

/// Per-workload scale. CTS and ANNS run between the paper's SD and MD
/// partitions (build time grows steeply with tables while ANNS latency is
/// flat above ~250); ExS runs at LD, where its 37 MiB cell matrix is far
/// larger than a core's private caches while CTS's per-cluster scans fit.
struct Scale {
  Method method = Method::kCts;
  size_t tables = 0;
  size_t queries_per_class = 0;
  /// Set-ups per run; setup_s is their median.
  size_t setups = 0;
  /// Open-loop arrival rate (anns_serve), far below the 4-6k qps the three
  /// workers saturate at, and below the ~2.3k qps the two fan-out-regime
  /// workers serve while the queue is shallow.
  double open_qps = 0.0;
  /// Closed-loop requests kept outstanding (anns_serve): workers + 5, so the
  /// queue stays above the service's fan-out threshold of 2.
  size_t outstanding = 0;
  /// Queries checked against ExS without cached embeddings (exs_scan).
  size_t uncached_checks = 0;
};

Scale ScaleFor(const Args& args, size_t threads) {
  Scale s;
  s.queries_per_class = args.smoke ? 4 : 80;
  s.setups = args.smoke ? 2 : 3;
  if (args.workload == "cts_query") {
    s.method = Method::kCts;
    s.tables = args.smoke ? 60 : 250;
  } else if (args.workload == "anns_serve") {
    s.method = Method::kAnns;
    s.tables = args.smoke ? 60 : 250;
    s.open_qps = 600.0;
    s.outstanding = (threads - 1) + 5;
  } else {
    s.method = Method::kExhaustive;
    s.tables = args.smoke ? 120 : 1500;
    s.setups = args.smoke ? 2 : 5;
    s.uncached_checks = 3;
  }
  return s;
}

uint64_t SplitMix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The generated federation, queries and qrels; every generator seed derives
/// from --seed.
datagen::Workload MakeInputs(const Args& args, const Scale& scale) {
  datagen::WorkloadOptions options = datagen::WikiTablesWorkload(scale.tables);
  options.bank.seed = SplitMix(args.seed, 1);
  options.corpus.seed = SplitMix(args.seed, 2);
  options.queries.seed = SplitMix(args.seed, 3);
  options.queries.per_class = scale.queries_per_class;
  options.qrels.seed = SplitMix(args.seed, 4);
  return datagen::Workload::Generate(options);
}

using QueryList = std::vector<const datagen::GeneratedQuery*>;

/// Query order of every loop: short, moderate, long, short, ... so a loop of
/// any length cycles all three length classes.
QueryList QueryCycle(const datagen::Workload& workload) {
  // QueryClass enumerators run kShort, kModerate, kLong from 0.
  std::array<QueryList, 3> by_class;
  for (const auto& q : workload.queries) {
    by_class[static_cast<size_t>(q.cls)].push_back(&q);
  }
  QueryList cycle;
  for (size_t i = 0; cycle.size() < workload.queries.size(); ++i) {
    for (const QueryList& cls : by_class) {
      if (i < cls.size()) cycle.push_back(cls[i]);
    }
  }
  return cycle;
}

// ---------------------------------------------------------------------------
// Small measurement helpers.

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

/// Samples per p99 block: the 99th percentile of 1,000 has ten beyond it.
constexpr size_t kBlock = 1000;
constexpr ptrdiff_t kBlockDiff = static_cast<ptrdiff_t>(kBlock);
/// Throughput window.
constexpr double kWindowS = 0.5;

/// p99 of each run of kBlock consecutive samples, then the median over the
/// blocks. The host's vCPUs stall for milliseconds at random moments; a
/// block-median p99 reports the tail a typical 1,000 queries see rather
/// than how many stalls happened to land in this run.
double BlockP99(const std::vector<double>& samples) {
  if (samples.size() < kBlock) return Quantile(samples, 0.99);
  std::vector<double> p99s;
  for (auto it = samples.begin(); samples.end() - it >= kBlockDiff;
       it += kBlockDiff) {
    p99s.push_back(Quantile(std::vector<double>(it, it + kBlockDiff), 0.99));
  }
  return Median(p99s);
}

/// Completions per second in each kWindowS window of [0, seconds), then the
/// median over the windows (same reasoning as BlockP99).
double WindowRate(const std::vector<double>& done_s, double seconds) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kWindowS));
  const double window = seconds / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (double t : done_s) {
    if (t < 0.0 || t >= seconds) continue;
    counts[std::min(windows - 1, static_cast<size_t>(t / window))] += 1.0;
  }
  for (double& c : counts) c /= window;
  return Median(counts);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-speed reference: a fixed, dependent integer/float loop. Timed at the
/// start and end of every run so a reader can tell host drift from a code
/// change; it never rescales any metric.
double HostRefMs() {
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    uint64_t x = 88172645463325252ULL;
    double acc = 0.0;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0.999999 + static_cast<double>(x & 0xffff);
    }
    const auto end = Clock::now();
    if (acc < 0.0) std::fprintf(stderr, "unreachable %f\n", acc);
    runs.push_back(MillisBetween(start, end));
  }
  return *std::min_element(runs.begin(), runs.end());
}

/// Bit-exact ranking equality: same relations, same order, same scores.
bool SameRanking(const Ranking& a, const Ranking& b) {
  if (a.size() != b.size() || a.degraded != b.degraded ||
      a.partial != b.partial) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].relation != b[i].relation ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Equality up to float rounding, for the ExS cached-vs-uncached contract
/// (scores within `tol`; relations may swap only inside such a tie, and the
/// last-ranked tie group may be cut differently).
bool SameWithinTolerance(const Ranking& a, const Ranking& b, float tol) {
  if (a.size() != b.size() || a.empty()) return a.size() == b.size();
  std::map<table::RelationId, float> b_scores;
  for (const auto& hit : b) b_scores[hit.relation] = hit.score;
  const float cut = a.back().score + tol;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i].score - b[i].score) > tol) return false;
    if (a[i].score <= cut) continue;
    const auto it = b_scores.find(a[i].relation);
    if (it == b_scores.end() || std::fabs(it->second - a[i].score) > tol) {
      return false;
    }
  }
  return true;
}

/// Metrics in output order, each with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Prints the result line. Failed runs report no metrics.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    if (correct) {
      for (size_t i = 0; i < metrics_.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                       : 0.0);
        line += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
      }
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Run-wide correctness state. Any entry fails the run.
struct Gate {
  Mutex mu;
  std::vector<std::string> errors MIRA_GUARDED_BY(mu);

  void Fail(const std::string& why) {
    MutexLock lock(mu);
    if (errors.size() < 20) errors.push_back(why);
  }
  bool ok() {
    MutexLock lock(mu);
    return errors.empty();
  }
  void PrintErrors() {
    MutexLock lock(mu);
    for (const auto& e : errors) {
      std::fprintf(stderr, "correctness: %s\n", e.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Span-tree accounting for the traced run.

/// Maps a span name to the per-layer metric its time is reported under.
/// embed_query is shared by the three searchers and so carries the method.
std::string StageMetric(const std::string& span, Method method) {
  if (span == "embed_query") {
    switch (method) {
      case Method::kAnns:
        return "anns.embed_query_ms";
      case Method::kCts:
        return "cts.embed_query_ms";
      case Method::kExhaustive:
        return "exs.embed_query_ms";
    }
  }
  static const char* const kKnown[] = {
      "anns.hnsw_search", "anns.group_relations", "vdb.search",
      "hnsw.search",      "anns.pq_adc",          "cts.medoid_match",
      "cts.cluster_search", "flat.scan",          "exs.scan",
  };
  if (span == "query") return "query.self_ms";
  for (const char* known : kKnown) {
    if (span == known) return span + "_ms";
  }
  return "";  // Unattributed: the accounting check counts it against the root.
}

/// Stage times summed over traced queries. A span is attributed its
/// duration minus its same-thread children's durations, so a fork/join
/// region's wall time stays with the span that waited on it; the worker
/// spans' own durations are summed apart (exs.scan_block_ms). Over the query
/// thread's tree the attributed times add up to the root `query` span.
struct StageAccounting {
  std::map<std::string, double> stage_ms;  // metric -> summed ms
  double root_ms = 0.0;
  double unattributed_ms = 0.0;
  double worker_ms = 0.0;       // Σ exs.scan_block durations
  double scan_wall_ms = 0.0;    // Σ exs.scan durations
  std::map<std::string, double> counters;  // metric -> summed count
  size_t queries = 0;
  size_t nesting_violations = 0;

  void Add(const obs::QueryTrace& trace, Method method) {
    const auto& spans = trace.spans();
    if (spans.empty() || std::strcmp(spans[0].name, "query") != 0) {
      ++nesting_violations;
      return;
    }
    ++queries;
    root_ms += spans[0].duration_ms;
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 1; i < spans.size(); ++i) {
      const int32_t parent = spans[i].parent;
      if (parent < 0 || static_cast<size_t>(parent) >= i) {
        ++nesting_violations;
        return;
      }
      children[static_cast<size_t>(parent)].push_back(i);
    }
    // Walk the query thread's tree; worker-thread children are fork/join
    // regions whose wall time their parent span absorbs.
    constexpr double kEpsMs = 0.002;
    std::vector<size_t> stack = {0};
    while (!stack.empty()) {
      const size_t i = stack.back();
      stack.pop_back();
      const obs::SpanRecord& span = spans[i];
      double covered = 0.0;
      std::vector<std::pair<double, double>> forked;
      for (size_t c : children[i]) {
        const obs::SpanRecord& child = spans[c];
        if (child.start_ms < span.start_ms - kEpsMs ||
            child.start_ms + child.duration_ms >
                span.start_ms + span.duration_ms + kEpsMs) {
          ++nesting_violations;
        }
        if (child.tid == span.tid) {
          covered += child.duration_ms;
          stack.push_back(c);
        } else {
          forked.emplace_back(child.start_ms,
                              child.start_ms + child.duration_ms);
          if (std::strcmp(child.name, "exs.scan_block") == 0) {
            worker_ms += child.duration_ms;
          }
        }
      }
      // Union of the forked intervals: the fork/join region's wall time.
      std::sort(forked.begin(), forked.end());
      double fork_wall = 0.0;
      double reach = -1e300;
      for (const auto& [start, end] : forked) {
        const double from = std::max(start, reach);
        if (end > from) fork_wall += end - from;
        reach = std::max(reach, end);
      }
      // Attributed time: self time, plus the fork/join wall it waited on.
      const double attributed = span.duration_ms - covered;
      if (attributed - fork_wall < -kEpsMs) ++nesting_violations;
      const std::string metric = StageMetric(span.name, method);
      if (metric.empty()) {
        unattributed_ms += attributed;
      } else {
        stage_ms[metric] += attributed;
      }
      if (std::strcmp(span.name, "exs.scan") == 0) {
        scan_wall_ms += span.duration_ms;
      }
    }
    counters["hnsw.dist_comps"] +=
        static_cast<double>(trace.CounterValue("hnsw.search", "dist_comps"));
    counters["hnsw.adc_decoded"] +=
        static_cast<double>(trace.CounterValue("hnsw.search", "adc_decoded"));
    counters["hnsw.popped"] +=
        static_cast<double>(trace.CounterValue("hnsw.search", "popped"));
    counters["anns.relations"] += static_cast<double>(
        trace.CounterValue("anns.group_relations", "relations"));
    counters["cts.clusters_searched"] += static_cast<double>(
        trace.CounterValue("cts.cluster_search", "clusters_searched"));
    counters["cts.cell_hits"] += static_cast<double>(
        trace.CounterValue("cts.cluster_search", "cell_hits"));
    counters["flat.rows_scanned"] +=
        static_cast<double>(trace.CounterValue("flat.scan", "rows_scanned"));
    counters["exs.cells_scanned"] +=
        static_cast<double>(trace.CounterValue("exs.scan", "cells_scanned"));
  }
};

/// Span trees collected by the service's traced runner (worker threads).
struct TraceSink {
  Mutex mu;
  std::vector<obs::QueryTrace> traces MIRA_GUARDED_BY(mu);
};

// ---------------------------------------------------------------------------
// Set-up: DiscoveryEngine::Build (+ DiscoveryService::Start).

/// An ExS searcher over the engine's corpus and encoder (borrowed, not
/// owned: the engine outlives it).
std::unique_ptr<discovery::ExhaustiveSearcher> MakeExs(
    const discovery::DiscoveryEngine& engine, discovery::ExsOptions options) {
  return std::make_unique<discovery::ExhaustiveSearcher>(
      &engine.federation(),
      std::shared_ptr<const discovery::CorpusEmbeddings>(
          std::shared_ptr<void>(), &engine.corpus()),
      std::shared_ptr<const embed::SemanticEncoder>(std::shared_ptr<void>(),
                                                    &engine.encoder()),
      options);
}

discovery::EngineOptions EngineOptionsFor(const Scale& scale,
                                          size_t threads) {
  discovery::EngineOptions options;
  options.encoder.dim = 192;
  options.embed_threads = threads;
  options.build_anns = scale.method == Method::kAnns;
  options.build_cts = scale.method == Method::kCts;
  // ExS scans serially: fanned out over the pool, every query waits on
  // whichever vCPU the host stalls, and p50/qps did not repeat (README.md).
  // The traced run measures the pooled scan beside it.
  options.exs.reuse_corpus_embeddings = scale.method == Method::kExhaustive;
  return options;
}

constexpr const char* kTenants[] = {"alpha", "beta", "gamma"};

service::ServiceOptions ServiceOptionsFor(size_t threads) {
  service::ServiceOptions options;
  // One core stays with the single load-generator thread.
  options.worker_threads = threads - 1;
  // Quotas lifted: shedding could only come from a full queue.
  options.admission.default_quota.refill_qps = 1e9;
  options.admission.default_quota.burst = 1e9;
  for (const char* tenant : kTenants) {
    options.admission.tenant_quotas[tenant] = options.admission.default_quota;
  }
  return options;
}

struct Served {
  std::unique_ptr<discovery::DiscoveryEngine> engine;
  std::unique_ptr<service::DiscoveryService> service;
};

// ---------------------------------------------------------------------------
// Load loops.

struct LatencyLog {
  std::vector<double> ms;
  std::vector<double> done_s;  // completion offsets from the loop's start
  uint64_t attempted = 0;
  uint64_t completed = 0;
};

/// One client, closed loop, untraced engine.Search; every ranking is checked
/// against the reference ranking of its query.
LatencyLog ClosedLoopDirect(const discovery::DiscoveryEngine& engine,
                            const Scale& scale, const QueryList& cycle,
                            const std::vector<Ranking>& reference,
                            const discovery::DiscoveryOptions& options,
                            double seconds, Gate* gate) {
  LatencyLog log;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  size_t mismatches = 0;
  for (size_t i = 0; Clock::now() < end; ++i) {
    const size_t q = i % cycle.size();
    const auto t0 = Clock::now();
    Result<Ranking> result =
        engine.Search(scale.method, cycle[q]->text, options);
    const auto t1 = Clock::now();
    ++log.attempted;
    if (!result.ok()) {
      gate->Fail("query error: " + result.status().ToString());
      continue;
    }
    ++log.completed;
    log.ms.push_back(MillisBetween(t0, t1));
    log.done_s.push_back(MillisBetween(start, t1) / 1000.0);
    if (!SameRanking(*result, reference[q])) ++mismatches;
  }
  if (mismatches > 0) {
    gate->Fail(std::to_string(mismatches) +
               " rankings differed from an earlier ranking of the same query");
  }
  return log;
}

/// Per-request bookkeeping of the service loops.
struct ServiceLog {
  Mutex mu;
  std::vector<double> latency_ms MIRA_GUARDED_BY(mu);
  std::vector<double> queue_ms MIRA_GUARDED_BY(mu);
  std::vector<double> run_ms MIRA_GUARDED_BY(mu);
  uint64_t completed MIRA_GUARDED_BY(mu) = 0;
  uint64_t finished MIRA_GUARDED_BY(mu) = 0;
  uint64_t fanout MIRA_GUARDED_BY(mu) = 0;
  /// Closed loop: completion offsets from `start`, inside the window.
  std::vector<double> done_s MIRA_GUARDED_BY(mu);
  Clock::time_point start;  // set before the first Submit
  CondVar cv;
};

struct ServiceLoad {
  ServiceLoad(service::DiscoveryService* service_in,
              const QueryList* cycle_in,
              const std::vector<Ranking>* reference_in,
              discovery::DiscoveryOptions options_in, Gate* gate_in)
      : service(service_in),
        cycle(cycle_in),
        reference(reference_in),
        options(options_in),
        gate(gate_in) {}

  service::DiscoveryService* service;
  const QueryList* cycle;
  const std::vector<Ranking>* reference;
  discovery::DiscoveryOptions options;
  Gate* gate;
  std::atomic<size_t> mismatches{0};
  std::vector<double> submit_us;
  size_t next = 0;

  service::ServiceRequest Request(size_t i) const {
    service::ServiceRequest request;
    request.tenant = kTenants[i % std::size(kTenants)];
    request.method = Method::kAnns;
    request.query = (*cycle)[i % cycle->size()]->text;
    request.options = options;
    return request;
  }

  /// Submits request `i`; its latency runs from `origin` to the callback.
  /// `window_end` (closed loop) bounds the completions counted toward qps.
  void Submit(size_t i, Clock::time_point origin, ServiceLog* log,
              Clock::time_point window_end) {
    const size_t q = i % cycle->size();
    const auto t0 = Clock::now();
    service->Submit(Request(i), [this, q, origin, log, window_end](
                                    service::ServiceResponse response) {
      const auto done = Clock::now();
      const bool ok = response.outcome == service::RequestOutcome::kCompleted &&
                      response.status.ok();
      if (ok && !SameRanking(response.ranking, (*reference)[q])) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      if (response.outcome == service::RequestOutcome::kFailed) {
        gate->Fail("service request failed: " + response.status.ToString());
      }
      MutexLock lock(log->mu);
      ++log->finished;
      if (ok) {
        ++log->completed;
        if (done <= window_end) {
          log->done_s.push_back(MillisBetween(log->start, done) / 1000.0);
        }
        log->latency_ms.push_back(MillisBetween(origin, done));
        log->queue_ms.push_back(response.queue_ms);
        log->run_ms.push_back(response.run_ms);
        if (response.mode == service::DispatchMode::kFanOut) ++log->fanout;
      }
      log->cv.NotifyAll();
    });
    submit_us.push_back(MillisBetween(t0, Clock::now()) * 1000.0);
  }
};

/// Open loop: Poisson arrivals at a fixed rate drawn from the seed. Latency
/// runs from each request's scheduled send time; `late_ms` records how late
/// the generator actually sent.
uint64_t OpenLoop(ServiceLoad* load, double qps, double seconds, uint64_t seed,
                  ServiceLog* log, std::vector<double>* late_ms) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(qps);
  // Wake at the due time, not up to the default 50 us timer slack later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  double offset_s = 0.0;
  uint64_t sent = 0;
  // The open loop feeds no throughput window.
  const auto no_window = Clock::time_point::min();
  for (;;) {
    offset_s += gap(rng);
    if (offset_s >= seconds) break;
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offset_s));
    std::this_thread::sleep_until(due);
    late_ms->push_back(MillisBetween(due, Clock::now()));
    load->Submit(load->next++, due, log, no_window);
    ++sent;
  }
  MutexLock lock(log->mu);
  log->cv.Wait(lock, [&] { return log->finished >= sent; });
  return sent;
}

/// Closed loop from the one generator thread: `outstanding` requests in
/// flight at all times. Returns requests sent; qps counts the completions
/// inside the window.
uint64_t ClosedLoopService(ServiceLoad* load, size_t outstanding,
                           double seconds, ServiceLog* log) {
  log->start = Clock::now();
  const auto end = log->start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  uint64_t sent = 0;
  while (Clock::now() < end) {
    {
      MutexLock lock(log->mu);
      log->cv.Wait(lock, [&] { return sent - log->finished < outstanding; });
    }
    load->Submit(load->next++, Clock::now(), log, end);
    ++sent;
  }
  MutexLock lock(log->mu);
  log->cv.Wait(lock, [&] { return log->finished >= sent; });
  return sent;
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  SetLogLevel(LogLevel::kWarning);
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 2, 4);
  const Scale scale = ScaleFor(args, threads);
  Gate gate;
  Report report;
  const double ref_start_ms = HostRefMs();

  const datagen::Workload workload = MakeInputs(args, scale);
  const auto cycle = QueryCycle(workload);

  // Set-up, several times; the last engine (and service) serves the run.
  const discovery::EngineOptions engine_options =
      EngineOptionsFor(scale, threads);
  TraceSink service_traces;
  std::vector<double> setup_s, build_embed_ms, build_anns_ms, build_cts_ms;
  Served served;
  for (size_t rep = 0; rep < scale.setups; ++rep) {
    served = Served{};
    table::Federation federation = workload.corpus.federation;
    const auto t0 = Clock::now();
    auto built = discovery::DiscoveryEngine::Build(
        std::move(federation), workload.bank.lexicon(), engine_options);
    if (!built.ok()) {
      std::fprintf(stderr, "engine build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    served.engine = std::move(built).MoveValue();
    if (scale.method == Method::kAnns) {
      const discovery::DiscoveryEngine* engine = served.engine.get();
      if (args.trace) {
        // Bench-side runner: the same SearchTraced call the service's own
        // runner makes, but the span tree is kept.
        served.service = std::make_unique<service::DiscoveryService>(
            [engine, &service_traces](const service::ServiceRequest& request)
                -> Result<Ranking> {
              Result<discovery::TracedRanking> traced = engine->SearchTraced(
                  request.method, request.query, request.options);
              if (!traced.ok()) return traced.status();
              discovery::TracedRanking out = traced.MoveValue();
              {
                MutexLock lock(service_traces.mu);
                service_traces.traces.push_back(std::move(out.trace));
              }
              return std::move(out.ranking);
            },
            ServiceOptionsFor(threads));
      } else {
        served.service = std::make_unique<service::DiscoveryService>(
            engine, ServiceOptionsFor(threads));
      }
      if (Status started = served.service->Start(); !started.ok()) {
        std::fprintf(stderr, "service start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }
    }
    setup_s.push_back(MillisBetween(t0, Clock::now()) / 1000.0);
    const discovery::BuildReport& build = served.engine->build_report();
    build_embed_ms.push_back(build.embed_ms);
    build_anns_ms.push_back(build.anns_build_ms);
    build_cts_ms.push_back(build.cts_build_ms);
  }
  const discovery::DiscoveryEngine& engine = *served.engine;
  const discovery::BuildReport& build = engine.build_report();

  // Reference rankings: one direct engine.Search per distinct query. They
  // warm the caches, give the quality metrics, and every later ranking of
  // the same query must equal them bit for bit.
  discovery::DiscoveryOptions options;
  options.top_k = 100;
  std::vector<Ranking> reference(cycle.size());
  std::unordered_map<ir::QueryId, std::vector<ir::DocId>> run;
  for (size_t q = 0; q < cycle.size(); ++q) {
    Result<Ranking> result =
        engine.Search(scale.method, cycle[q]->text, options);
    if (!result.ok()) {
      gate.Fail("reference query error: " + result.status().ToString());
      continue;
    }
    reference[q] = result.MoveValue();
    for (const auto& hit : reference[q]) {
      run[cycle[q]->id].push_back(hit.relation);
    }
  }
  const ir::EvalResult quality = ir::Evaluate(workload.qrels, run, {10});

  // ExS with cached embeddings must match ExS re-encoding every cell, whose
  // contract promises identical scores (up to float rounding).
  if (scale.uncached_checks > 0) {
    discovery::ExsOptions uncached;
    uncached.num_threads = threads;
    const auto faithful = MakeExs(engine, uncached);
    for (size_t q = 0; q < std::min(scale.uncached_checks, cycle.size()); ++q) {
      Result<Ranking> slow = faithful->Search(cycle[q]->text, options);
      if (!slow.ok() || !SameWithinTolerance(*slow, reference[q], 1e-4f)) {
        gate.Fail("cached ExS ranking differs from uncached ExS for query " +
                  std::to_string(cycle[q]->id));
      }
    }
  }

  uint64_t attempted = 0;
  uint64_t completed = 0;
  std::vector<double> latency_ms;
  double qps = 0.0;
  // Traced-run state.
  StageAccounting stages;
  StageAccounting pool_stages;  // exs_scan: the pooled scan
  std::vector<double> t_search, t_traced, t_searcher, t_embed;
  std::vector<double> submit_us, queue_ms, run_ms, late_ms, open_latency_ms;
  double fanout_frac = 0.0;
  service::DiscoveryService::Stats before{}, after{};
  obs::ChromeTraceWriter chrome;
  constexpr size_t kTracesWritten = 200;

  if (args.trace) {
    // Direct phase: the same query through engine.Search, SearchTraced and
    // searcher(m)->Search (rotating which goes first), then EncodeText. On
    // anns_serve the stage times come from the served queries instead.
    const double direct_s =
        scale.method == Method::kAnns ? args.seconds / 3.0 : args.seconds;
    const discovery::Searcher* searcher = engine.searcher(scale.method);
    // exs_scan: the same cached scan fanned out over a pool of `threads`,
    // traced from here (a bench-side root span) for the pool-layer metrics.
    std::unique_ptr<discovery::ExhaustiveSearcher> pooled;
    if (scale.method == Method::kExhaustive) {
      discovery::ExsOptions pool_options;
      pool_options.reuse_corpus_embeddings = true;
      pool_options.num_threads = threads;
      pooled = MakeExs(engine, pool_options);
    }
    const auto end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(direct_s));
    size_t mismatches = 0;
    for (size_t i = 0; Clock::now() < end; ++i) {
      const size_t q = i % cycle.size();
      const std::string& text = cycle[q]->text;
      for (size_t k = 0; k < 3; ++k) {
        const size_t which = (i + k) % 3;
        const auto t0 = Clock::now();
        Result<discovery::TracedRanking> result =
            [&]() -> Result<discovery::TracedRanking> {
          if (which == 1) {
            return engine.SearchTraced(scale.method, text, options);
          }
          Result<Ranking> ranking =
              which == 0 ? engine.Search(scale.method, text, options)
                         : searcher->Search(text, options);
          if (!ranking.ok()) return ranking.status();
          return discovery::TracedRanking{ranking.MoveValue(), {}};
        }();
        const double ms = MillisBetween(t0, Clock::now());
        ++attempted;
        if (!result.ok()) {
          gate.Fail("query error: " + result.status().ToString());
          continue;
        }
        ++completed;
        (which == 0 ? t_search : which == 1 ? t_traced : t_searcher)
            .push_back(ms);
        if (which == 1 && scale.method != Method::kAnns) {
          if (chrome.num_queries() < kTracesWritten) {
            chrome.AddQuery(result->trace);
          }
          stages.Add(result->trace, scale.method);
        }
        if (!SameRanking(result->ranking, reference[q])) ++mismatches;
      }
      if (pooled != nullptr) {
        obs::QueryTrace trace;
        Result<Ranking> ranking = [&] {
          obs::ScopedTrace collect(&trace);
          obs::TraceSpan root("query");
          return pooled->Search(text, options);
        }();
        ++attempted;
        if (!ranking.ok()) {
          gate.Fail("pooled ExS error: " + ranking.status().ToString());
        } else {
          ++completed;
          pool_stages.Add(trace, scale.method);
          // Per-block partial sums merge in another order than the serial
          // scan, so scores agree up to float rounding.
          if (!SameWithinTolerance(*ranking, reference[q], 1e-4f)) {
            ++mismatches;
          }
        }
      }
      const auto t0 = Clock::now();
      const vecmath::Vec embedding = engine.encoder().EncodeText(text);
      t_embed.push_back(MillisBetween(t0, Clock::now()) * 1000.0);
      if (embedding.empty()) gate.Fail("empty query embedding");
    }
    if (mismatches > 0) {
      gate.Fail(std::to_string(mismatches) +
                " rankings differed from an earlier ranking of the same query");
    }
  }

  if (scale.method == Method::kAnns) {
    ServiceLoad load(served.service.get(), &cycle, &reference, options, &gate);
    // Warm the service path once over every distinct query.
    for (size_t q = 0; q < cycle.size(); ++q) {
      service::ServiceResponse response =
          served.service->Search(load.Request(q));
      if (response.outcome != service::RequestOutcome::kCompleted ||
          !SameRanking(response.ranking, reference[q])) {
        gate.Fail("service warm-up ranking differs from engine.Search");
      }
    }
    if (args.trace) {
      MutexLock lock(service_traces.mu);
      service_traces.traces.clear();
    }
    before = served.service->GetStats();
    ServiceLog open_log;
    uint64_t open_sent = 0;
    if (args.trace) {
      // Open loop: the service-layer split at a fixed rate below saturation.
      open_sent = OpenLoop(&load, scale.open_qps, args.seconds / 3.0,
                           SplitMix(args.seed, 5), &open_log, &late_ms);
      submit_us = load.submit_us;
    }
    const double closed_s = args.trace ? args.seconds / 3.0 : args.seconds;
    ServiceLog closed_log;
    const uint64_t closed_sent =
        ClosedLoopService(&load, scale.outstanding, closed_s, &closed_log);
    after = served.service->GetStats();
    attempted += open_sent + closed_sent;
    {
      MutexLock open_lock(open_log.mu);
      MutexLock closed_lock(closed_log.mu);
      completed += open_log.completed + closed_log.completed;
      latency_ms = closed_log.latency_ms;
      qps = WindowRate(closed_log.done_s, closed_s);
      open_latency_ms = open_log.latency_ms;
      queue_ms = open_log.queue_ms;
      run_ms = open_log.run_ms;
      fanout_frac = closed_log.completed == 0
                        ? 0.0
                        : static_cast<double>(closed_log.fanout) /
                              static_cast<double>(closed_log.completed);
    }
    if (load.mismatches.load() > 0) {
      gate.Fail(std::to_string(load.mismatches.load()) +
                " service rankings differed from engine.Search");
    }
    served.service->Stop();
    if (args.trace) {
      MutexLock lock(service_traces.mu);
      for (const auto& trace : service_traces.traces) {
        if (chrome.num_queries() < kTracesWritten) chrome.AddQuery(trace);
        stages.Add(trace, scale.method);
      }
    }
  } else if (!args.trace) {
    LatencyLog log = ClosedLoopDirect(engine, scale, cycle, reference, options,
                                      args.seconds, &gate);
    attempted += log.attempted;
    completed += log.completed;
    latency_ms = std::move(log.ms);
    qps = WindowRate(log.done_s, args.seconds);
  }

  const double ref_end_ms = HostRefMs();
  std::fprintf(stderr, "host.ref_ms start=%.3f end=%.3f\n", ref_start_ms,
               ref_end_ms);

  if (!args.trace) {
    const size_t beyond_p99 =
        latency_ms.size() - static_cast<size_t>(std::ceil(
                                0.99 * static_cast<double>(latency_ms.size())));
    if (!args.smoke && beyond_p99 < 10) {
      gate.Fail("only " + std::to_string(latency_ms.size()) +
                " latency samples; a run needs ten beyond its p99");
    }
    // The p99 is printed, not reported: see README.md for its spread.
    std::fprintf(stderr,
                 "samples=%zu beyond_p99=%zu p99=%.3f ms (block median) "
                 "%.3f ms (whole run)\n",
                 latency_ms.size(), beyond_p99, BlockP99(latency_ms),
                 Quantile(latency_ms, 0.99));
    report.Add("p50_ms", Quantile(latency_ms, 0.50), "ms");
    report.Add("qps", qps, "1/s");
    report.Add("ok_frac",
               attempted == 0 ? 0.0
                              : static_cast<double>(completed) /
                                    static_cast<double>(attempted),
               "ratio");
    report.Add("map", quality.map, "score");
    report.Add("ndcg10", quality.ndcg.at(10), "score");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    // Stage accounting: the reported stage times must add up to the root
    // `query` span within kAccountingTolerance of its total.
    constexpr double kAccountingTolerance = 0.01;
    const double n = static_cast<double>(std::max<size_t>(1, stages.queries));
    const double unattributed_frac =
        stages.root_ms > 0.0 ? stages.unattributed_ms / stages.root_ms : 1.0;
    for (const StageAccounting* acc : {&stages, &pool_stages}) {
      if (acc == &pool_stages && scale.method != Method::kExhaustive) break;
      double stage_sum = 0.0;
      for (const auto& [name, ms] : acc->stage_ms) stage_sum += ms;
      if (acc->queries == 0 || acc->nesting_violations > 0 ||
          std::fabs(stage_sum - acc->root_ms) >
              kAccountingTolerance * acc->root_ms) {
        gate.Fail("stage accounting: " + std::to_string(acc->queries) +
                  " traces, " + std::to_string(acc->nesting_violations) +
                  " nesting violations, stages " + std::to_string(stage_sum) +
                  " ms vs root " + std::to_string(acc->root_ms) + " ms");
      }
    }
    auto stage = [&](const std::string& name) {
      const auto it = stages.stage_ms.find(name);
      return it == stages.stage_ms.end() ? 0.0 : it->second / n;
    };
    auto count = [&](const std::string& name) {
      const auto it = stages.counters.find(name);
      return it == stages.counters.end() ? 0.0 : it->second / n;
    };
    auto delta = [&](uint64_t service::DiscoveryService::Stats::*field) {
      return static_cast<double>(after.*field - before.*field);
    };
    report.Add("service.submit_us.p50", Quantile(submit_us, 0.5), "us");
    report.Add("service.queue_ms.p50", Quantile(queue_ms, 0.5), "ms");
    report.Add("service.queue_ms.p99", BlockP99(queue_ms), "ms");
    report.Add("service.run_ms.p50", Quantile(run_ms, 0.5), "ms");
    report.Add("service.fanout_frac", fanout_frac, "ratio");
    report.Add("service.shed",
               delta(&service::DiscoveryService::Stats::rejected), "count");
    report.Add("service.evicted",
               delta(&service::DiscoveryService::Stats::evicted), "count");
    report.Add("service.failed",
               delta(&service::DiscoveryService::Stats::failed), "count");
    report.Add("gen.late_ms.p99", BlockP99(late_ms), "ms");
    report.Add("service.open_p50_ms", Quantile(open_latency_ms, 0.5), "ms");
    report.Add("service.open_p99_ms", BlockP99(open_latency_ms), "ms");
    for (const char* name :
         {"anns.embed_query_ms", "anns.hnsw_search_ms", "hnsw.search_ms",
          "anns.pq_adc_ms", "anns.group_relations_ms", "vdb.search_ms",
          "cts.embed_query_ms", "cts.medoid_match_ms", "cts.cluster_search_ms",
          "flat.scan_ms", "exs.embed_query_ms", "exs.scan_ms",
          "query.self_ms"}) {
      report.Add(name, stage(name), "ms");
    }
    for (const char* name :
         {"hnsw.dist_comps", "hnsw.adc_decoded", "hnsw.popped",
          "anns.relations", "cts.clusters_searched", "cts.cell_hits",
          "flat.rows_scanned", "exs.cells_scanned"}) {
      report.Add(name, count(name), "count");
    }
    const double pool_n =
        static_cast<double>(std::max<size_t>(1, pool_stages.queries));
    report.Add("exs.pool_scan_ms", pool_stages.scan_wall_ms / pool_n, "ms");
    report.Add("exs.scan_block_ms", pool_stages.worker_ms / pool_n, "ms");
    // Bytes computed from cells x dim x 4 (float32 rows read once).
    const double scan_bytes =
        stages.counters["exs.cells_scanned"] * static_cast<double>(build.dim) *
        4.0;
    report.Add("exs.scan_gbps",
               stages.scan_wall_ms > 0.0
                   ? scan_bytes / (stages.scan_wall_ms / 1000.0) / 1e9
                   : 0.0,
               "GB/s");
    report.Add("exs.parallel_eff",
               pool_stages.scan_wall_ms > 0.0
                   ? pool_stages.worker_ms / (pool_stages.scan_wall_ms *
                                              static_cast<double>(threads))
                   : 0.0,
               "ratio");
    const double search_p50 = Quantile(t_search, 0.5);
    report.Add("embed.query_us.p50", Quantile(t_embed, 0.5), "us");
    report.Add("engine.wrap_us.p50",
               (search_p50 - Quantile(t_searcher, 0.5)) * 1000.0, "us");
    report.Add("obs.trace_overhead_frac",
               search_p50 > 0.0 ? Quantile(t_traced, 0.5) / search_p50 - 1.0
                                : 0.0,
               "ratio");
    report.Add("trace.unattributed_frac", unattributed_frac, "ratio");
    report.Add("trace.queries", static_cast<double>(stages.queries), "count");
    report.Add("build.embed_ms", Median(build_embed_ms), "ms");
    report.Add("build.anns_ms", Median(build_anns_ms), "ms");
    report.Add("build.cts_ms", Median(build_cts_ms), "ms");
    report.Add("build.index_mib",
               static_cast<double>(build.anns_index_bytes +
                                   build.cts_index_bytes) /
                   (1024.0 * 1024.0),
               "MiB");
    report.Add("build.corpus_mib",
               static_cast<double>(build.num_cells * build.dim) *
                   sizeof(float) / (1024.0 * 1024.0),
               "MiB");
    report.Add("host.ref_ms", (ref_start_ms + ref_end_ms) / 2.0, "ms");
    report.Add("host.ref_drift_frac", ref_end_ms / ref_start_ms - 1.0, "ratio");
    if (!args.trace_out.empty()) {
      if (Status written = chrome.WriteFile(args.trace_out); !written.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     written.ToString().c_str());
      }
    }
  }

  const bool correct = gate.ok();
  gate.PrintErrors();
  report.Print(correct, std::max<uint64_t>(attempted, 1),
               attempted - completed);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <cts_query|anns_serve|exs_scan> "
                 "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  return Run(args);
}
