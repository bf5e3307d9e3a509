#ifndef MIRA_DISCOVERY_ENGINE_H_
#define MIRA_DISCOVERY_ENGINE_H_

#include <array>
#include <memory>
#include <string>

#include "common/threadpool.h"
#include "discovery/anns_search.h"
#include "discovery/cts_search.h"
#include "discovery/exhaustive_search.h"
#include "discovery/types.h"
#include "embed/encoder.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "table/relation.h"

namespace mira::discovery {

/// Which of the paper's three methods answers a query.
enum class Method { kExhaustive, kAnns, kCts };

std::string_view MethodToString(Method method);

/// Runs `search` with the calling thread's spans collected into `trace`
/// (subject to the sampling knob), under a root "query" span labelled with
/// `method` that counts the ranking's results and whether it is degraded:
/// the shape of every query trace, SearchTraced's and the service's.
template <typename Search>
[[nodiscard]] Result<Ranking> TraceQuery(Method method, obs::QueryTrace* trace,
                                         const Search& search) {
  obs::ScopedTrace collect(trace);
  obs::TraceSpan root("query");
  root.SetLabel(MethodToString(method));
  Result<Ranking> result = search();
  if (result.ok()) {
    root.AddCounter("results", static_cast<int64_t>(result->size()));
    root.AddCounter("degraded", result->degraded ? 1 : 0);
  }
  return result;
}

/// The query-log entry of a `method` search that took `millis`; `ranking`
/// is null when it failed.
obs::QueryLogEntry QueryLogEntryFor(Method method,
                                    const DiscoveryOptions& options,
                                    double millis, const Ranking* ranking);

/// Structured summary of what Build() did: stage wall times, corpus shape,
/// and the size of every index the build produced. Logged once at kInfo when
/// the engine finishes building and mirrored into `mira.build.*` gauges.
struct BuildReport {
  size_t num_relations = 0;
  size_t num_cells = 0;
  size_t dim = 0;
  /// True for BuildWithCorpus (the embedding pass was skipped).
  bool reused_corpus = false;
  double embed_ms = 0.0;
  /// Wall time of each searcher's Build. With a build pool and both
  /// searchers enabled the two builds overlap, so they can sum to more than
  /// total_ms.
  double anns_build_ms = 0.0;
  double cts_build_ms = 0.0;
  /// Inside anns_build_ms: PQ training plus encoding, timed on the thread
  /// that ran them — beside graph insertion when there is a build pool.
  double pq_ms = 0.0;
  /// Inside cts_build_ms: the UMAP reduction and the HDBSCAN clustering.
  double umap_ms = 0.0;
  double hdbscan_ms = 0.0;
  double total_ms = 0.0;
  size_t anns_index_bytes = 0;
  size_t cts_index_bytes = 0;
  size_t cts_clusters = 0;

  /// Compact one-line summary for logs.
  std::string ToString() const;
  std::string ToJson() const;
};

/// Result of SearchTraced: the ranking plus the query's span tree. The trace
/// is empty when tracing is compiled out (MIRA_OBS=OFF) or the query was not
/// sampled (obs::SetTraceSampling).
struct TracedRanking {
  Ranking ranking;
  obs::QueryTrace trace;
};

/// Engine-level configuration.
struct EngineOptions {
  embed::EncoderOptions encoder;
  ExsOptions exs;
  AnnsOptions anns;
  CtsOptions cts;
  /// Build the ANNS vector database (disable to save build time when only
  /// ExS/CTS are exercised).
  bool build_anns = true;
  /// Build the CTS cluster structures.
  bool build_cts = true;
  /// Threads of the build pool; 0 = hardware concurrency, 1 = serial. The
  /// pool lives for the whole of Build/BuildWithCorpus: it embeds the corpus,
  /// trains PQ beside the HNSW insertion, runs UMAP's kNN queries and
  /// HDBSCAN's core distances, and lets ANNS and CTS build concurrently.
  /// Every index it builds is bit-identical to a serial build.
  size_t embed_threads = 0;
};

/// One-stop facade over the full pipeline of Figure 2: encode the federation
/// once, then answer keyword queries with any of ExS / ANNS / CTS.
///
/// Typical use:
///
///     auto engine = DiscoveryEngine::Build(federation, lexicon, options);
///     auto ranking = engine->Search(Method::kCts, "covid vaccine", {});
///
/// Deadline behavior (DiscoveryOptions::control): searchers first
/// self-degrade (ANNS shrinks ef, CTS probes fewer clusters). If the primary
/// method still misses its deadline, the engine answers from the cached
/// exhaustive scan with the deadline lifted: the full, exact ExS ranking,
/// flagged `degraded` (never `partial`), so a deadline-bounded query returns
/// a ranking instead of an error. Cancellation is different: kCancelled
/// means the caller walked away, so it propagates immediately with no
/// fallback. See docs/ROBUSTNESS.md.
class DiscoveryEngine {
 public:
  /// Builds every enabled search structure over `federation`. The federation
  /// is copied into the engine (it must outlive nothing).
  [[nodiscard]] static Result<std::unique_ptr<DiscoveryEngine>> Build(
      table::Federation federation,
      std::shared_ptr<const embed::Lexicon> lexicon,
      const EngineOptions& options = {});

  /// Builds from previously cached cell embeddings (CorpusEmbeddings::Save /
  /// Load), skipping the embedding pass — the dominant indexing cost. The
  /// federation must be the one the corpus was embedded from and the encoder
  /// options must match the original build (ExS re-encodes at query time and
  /// its scores would drift otherwise).
  [[nodiscard]] static Result<std::unique_ptr<DiscoveryEngine>> BuildWithCorpus(
      table::Federation federation,
      std::shared_ptr<const embed::Lexicon> lexicon, CorpusEmbeddings corpus,
      const EngineOptions& options = {});

  /// Answers a keyword query with the chosen method.
  [[nodiscard]] Result<Ranking> Search(Method method, const std::string& query,
                         const DiscoveryOptions& options) const;

  /// Like Search(), but also collects the per-query span tree (wall time plus
  /// method-specific counters for every instrumented stage). Subject to the
  /// runtime sampling knob; see docs/OBSERVABILITY.md.
  [[nodiscard]] Result<TracedRanking> SearchTraced(
      Method method, const std::string& query,
      const DiscoveryOptions& options) const;

  /// Search() for a caller that keeps its own query log, as
  /// service::DiscoveryService does with one tenant-tagged entry per served
  /// request: the same answer and per-method metrics, but no query-log
  /// entry, so the latency histogram carries no exemplar for it. Spans go
  /// to the caller's armed obs::ScopedTrace, if any.
  [[nodiscard]] Result<Ranking> SearchUnlogged(
      Method method, const std::string& query,
      const DiscoveryOptions& options) const;

  /// Access to an individual searcher (null if not built).
  const Searcher* searcher(Method method) const;

  /// What the build did and what it cost (populated by Build /
  /// BuildWithCorpus).
  const BuildReport& build_report() const { return build_report_; }

  /// Refreshes the `mira.mem.*` (corpus / ANNS / CTS resident bytes, from
  /// the Collection and index MemoryUsage() breakdowns) and `mira.pool.*`
  /// (ExS scan-pool queue depth / utilization) gauges. Pull-style: call
  /// before a scrape, or register it with obs::DebugServer::AddCollector.
  /// No-op when observability is compiled out.
  void PublishResourceMetrics() const;

  const table::Federation& federation() const { return federation_; }
  const embed::SemanticEncoder& encoder() const { return *encoder_; }
  const CorpusEmbeddings& corpus() const { return *corpus_; }

 private:
  DiscoveryEngine() = default;

  /// Builds the three searchers once corpus embeddings exist. `pool` is the
  /// build pool (null = serial); this must run on a non-pool thread.
  [[nodiscard]] Status FinishBuild(const EngineOptions& options,
                                   ThreadPool* pool);

  /// Search + the deadline fallback; shared by the public searches.
  [[nodiscard]] Result<Ranking> SearchWithFallback(
      Method method, const std::string& query,
      const DiscoveryOptions& options) const;

  /// Bumps the per-method query counters / latency histograms.
  /// `query_log_id` (when non-zero) is pinned to the latency histogram as an
  /// exemplar, so a tail quantile on /metricsz links to the query behind it.
  void RecordQueryMetrics(Method method, double millis, bool ok,
                          uint64_t query_log_id) const;

  /// Bumps the mira.query.degraded.* counters for a returned ranking.
  void RecordDegradation(const Ranking& ranking, bool fell_back) const;

  /// Appends one entry to obs::QueryLog::Global() (and promotes the full
  /// trace when the query crossed the slow threshold). `ranking` is null for
  /// failed queries, `trace` for untraced ones. Returns the log entry's id
  /// (0 when the log is disabled at compile time).
  uint64_t RecordQueryLog(Method method, const DiscoveryOptions& options,
                          double millis, const Ranking* ranking,
                          const obs::QueryTrace* trace) const;

  /// Registry metrics cached once per engine so the per-query fast path is
  /// pure atomics. Indexed by Method's enumerator order.
  struct MethodMetrics {
    obs::Counter* queries = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency_ms = nullptr;
  };

  /// mira.query.degraded.* counters, cached like MethodMetrics.
  struct DegradedMetrics {
    obs::Counter* count = nullptr;     ///< rankings returned degraded
    obs::Counter* partial = nullptr;   ///< ... of which partial-coverage
    obs::Counter* fallback = nullptr;  ///< ... answered by a fallback method
  };

  table::Federation federation_;
  std::shared_ptr<const embed::SemanticEncoder> encoder_;
  std::shared_ptr<const CorpusEmbeddings> corpus_;
  std::unique_ptr<ExhaustiveSearcher> exhaustive_;
  std::unique_ptr<AnnsSearcher> anns_;
  std::unique_ptr<CtsSearcher> cts_;
  /// The deadline fallback: a cached-corpus exhaustive scanner, one dot per
  /// relation against the per-relation mean vectors its construction builds
  /// from corpus_. It runs with the deadline lifted, so it always answers
  /// unless the query is cancelled.
  std::unique_ptr<ExhaustiveSearcher> fallback_exs_;
  BuildReport build_report_;
  std::array<MethodMetrics, 3> method_metrics_{};
  DegradedMetrics degraded_metrics_{};
};

}  // namespace mira::discovery

#endif  // MIRA_DISCOVERY_ENGINE_H_
