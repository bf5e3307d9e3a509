#include "discovery/engine.h"

#include <future>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/query_log.h"

namespace mira::discovery {

std::string_view MethodToString(Method method) {
  switch (method) {
    case Method::kExhaustive:
      return "ExS";
    case Method::kAnns:
      return "ANNS";
    case Method::kCts:
      return "CTS";
  }
  return "?";
}

std::string BuildReport::ToString() const {
  return StrFormat(
      "relations=%zu cells=%zu dim=%zu embed=%.1fms%s anns=%.1fms (pq %.1fms, "
      "%.1f MiB) cts=%.1fms (umap %.1fms, hdbscan %.1fms, %.1f MiB, %zu "
      "clusters) total=%.1fms",
      num_relations, num_cells, dim, embed_ms,
      reused_corpus ? " (cached corpus)" : "", anns_build_ms, pq_ms,
      static_cast<double>(anns_index_bytes) / (1024.0 * 1024.0), cts_build_ms,
      umap_ms, hdbscan_ms,
      static_cast<double>(cts_index_bytes) / (1024.0 * 1024.0), cts_clusters,
      total_ms);
}

std::string BuildReport::ToJson() const {
  return StrFormat(
      "{\"num_relations\": %zu, \"num_cells\": %zu, \"dim\": %zu, "
      "\"reused_corpus\": %s, \"embed_ms\": %.3f, \"anns_build_ms\": %.3f, "
      "\"cts_build_ms\": %.3f, \"pq_ms\": %.3f, \"umap_ms\": %.3f, "
      "\"hdbscan_ms\": %.3f, \"total_ms\": %.3f, \"anns_index_bytes\": %zu, "
      "\"cts_index_bytes\": %zu, \"cts_clusters\": %zu}",
      num_relations, num_cells, dim, reused_corpus ? "true" : "false",
      embed_ms, anns_build_ms, cts_build_ms, pq_ms, umap_ms, hdbscan_ms,
      total_ms, anns_index_bytes, cts_index_bytes, cts_clusters);
}

namespace {

// Encoder with corpus-driven SIF weights over the federation's text.
std::shared_ptr<embed::SemanticEncoder> MakeEngineEncoder(
    const table::Federation& federation,
    std::shared_ptr<const embed::Lexicon> lexicon,
    const EngineOptions& options) {
  auto encoder = std::make_shared<embed::SemanticEncoder>(options.encoder,
                                                          std::move(lexicon));
  // Corpus unigram statistics drive the encoder's SIF pooling weights: very
  // frequent tokens contribute little to sentence embeddings.
  auto frequencies = std::make_shared<embed::TokenFrequencies>();
  for (const auto& relation : federation.relations()) {
    frequencies->AddText(relation.ConsolidatedText());
  }
  encoder->SetTokenFrequencies(std::move(frequencies));
  return encoder;
}

// The build pool (EngineOptions::embed_threads); null runs every build loop
// inline on the calling thread.
std::unique_ptr<ThreadPool> MakeBuildPool(const EngineOptions& options) {
  if (options.embed_threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(options.embed_threads);
}

// Mirrors the build report into registry gauges so a metrics scrape sees the
// cost of the most recent build alongside the query-time series.
void PublishBuildMetrics(const BuildReport& report) {
  if constexpr (obs::kObsEnabled) {
    auto& registry = obs::MetricRegistry::Global();
    registry.GetGauge("mira.build.relations")
        .Set(static_cast<double>(report.num_relations));
    registry.GetGauge("mira.build.cells")
        .Set(static_cast<double>(report.num_cells));
    registry.GetGauge("mira.build.embed_ms").Set(report.embed_ms);
    registry.GetGauge("mira.build.anns_ms").Set(report.anns_build_ms);
    registry.GetGauge("mira.build.cts_ms").Set(report.cts_build_ms);
    registry.GetGauge("mira.build.pq_ms").Set(report.pq_ms);
    registry.GetGauge("mira.build.umap_ms").Set(report.umap_ms);
    registry.GetGauge("mira.build.hdbscan_ms").Set(report.hdbscan_ms);
    registry.GetGauge("mira.build.total_ms").Set(report.total_ms);
    registry.GetGauge("mira.build.anns_index_bytes")
        .Set(static_cast<double>(report.anns_index_bytes));
    registry.GetGauge("mira.build.cts_index_bytes")
        .Set(static_cast<double>(report.cts_index_bytes));
    registry.GetGauge("mira.build.cts_clusters")
        .Set(static_cast<double>(report.cts_clusters));
  }
}

}  // namespace

Result<std::unique_ptr<DiscoveryEngine>> DiscoveryEngine::Build(
    table::Federation federation, std::shared_ptr<const embed::Lexicon> lexicon,
    const EngineOptions& options) {
  if (lexicon == nullptr) {
    return Status::InvalidArgument("engine: null lexicon");
  }
  WallTimer total_timer;
  std::unique_ptr<DiscoveryEngine> engine(new DiscoveryEngine());
  engine->federation_ = std::move(federation);
  engine->encoder_ =
      MakeEngineEncoder(engine->federation_, std::move(lexicon), options);

  std::unique_ptr<ThreadPool> pool = MakeBuildPool(options);
  WallTimer embed_timer;
  MIRA_ASSIGN_OR_RETURN(
      CorpusEmbeddings corpus,
      CorpusEmbeddings::Build(engine->federation_, *engine->encoder_,
                              pool.get()));
  engine->build_report_.embed_ms = embed_timer.ElapsedMillis();
  engine->corpus_ = std::make_shared<const CorpusEmbeddings>(std::move(corpus));
  MIRA_RETURN_NOT_OK(engine->FinishBuild(options, pool.get()));
  engine->build_report_.total_ms = total_timer.ElapsedMillis();
  PublishBuildMetrics(engine->build_report_);
  MIRA_LOG_INFO() << "engine build: " << engine->build_report_.ToString();
  return engine;
}

Result<std::unique_ptr<DiscoveryEngine>> DiscoveryEngine::BuildWithCorpus(
    table::Federation federation, std::shared_ptr<const embed::Lexicon> lexicon,
    CorpusEmbeddings corpus, const EngineOptions& options) {
  if (lexicon == nullptr) {
    return Status::InvalidArgument("engine: null lexicon");
  }
  if (corpus.num_relations != federation.size()) {
    return Status::InvalidArgument(
        "engine: cached corpus does not match the federation");
  }
  if (corpus.dim() != options.encoder.dim) {
    return Status::InvalidArgument(
        "engine: cached corpus dimension does not match encoder options");
  }
  WallTimer total_timer;
  std::unique_ptr<DiscoveryEngine> engine(new DiscoveryEngine());
  engine->federation_ = std::move(federation);
  engine->encoder_ =
      MakeEngineEncoder(engine->federation_, std::move(lexicon), options);
  engine->corpus_ = std::make_shared<const CorpusEmbeddings>(std::move(corpus));
  engine->build_report_.reused_corpus = true;
  std::unique_ptr<ThreadPool> pool = MakeBuildPool(options);
  MIRA_RETURN_NOT_OK(engine->FinishBuild(options, pool.get()));
  engine->build_report_.total_ms = total_timer.ElapsedMillis();
  PublishBuildMetrics(engine->build_report_);
  MIRA_LOG_INFO() << "engine build: " << engine->build_report_.ToString();
  return engine;
}

Status DiscoveryEngine::FinishBuild(const EngineOptions& options,
                                    ThreadPool* pool) {
  build_report_.num_relations = federation_.size();
  build_report_.num_cells = corpus_->num_cells();
  build_report_.dim = corpus_->dim();

  exhaustive_ = std::make_unique<ExhaustiveSearcher>(&federation_, corpus_,
                                                     encoder_, options.exs);
  ExsOptions fallback_exs;
  fallback_exs.reuse_corpus_embeddings = true;  // index-speed, shares corpus_
  fallback_exs_ = std::make_unique<ExhaustiveSearcher>(&federation_, corpus_,
                                                       encoder_, fallback_exs);
  // ANNS and CTS only read corpus_. With a pool they build concurrently:
  // CTS on a thread of its own (not a pool task, so its parallel loops may
  // wait on the pool), ANNS on this one. Each writes only its own searcher
  // and report fields.
  auto build_cts = [this, &options, pool]() -> Status {
    WallTimer timer;
    MIRA_ASSIGN_OR_RETURN(cts_, CtsSearcher::Build(federation_, corpus_,
                                                   encoder_, options.cts, pool));
    build_report_.cts_build_ms = timer.ElapsedMillis();
    build_report_.umap_ms = cts_->umap_ms();
    build_report_.hdbscan_ms = cts_->hdbscan_ms();
    build_report_.cts_index_bytes = cts_->IndexMemoryBytes();
    build_report_.cts_clusters = cts_->num_clusters();
    return Status::OK();
  };
  std::future<Status> cts_job;
  if (options.build_cts && options.build_anns && pool != nullptr) {
    cts_job = std::async(std::launch::async, build_cts);
  }
  if (options.build_anns) {
    WallTimer timer;
    MIRA_ASSIGN_OR_RETURN(
        anns_, AnnsSearcher::Build(federation_, corpus_, encoder_,
                                   options.anns, pool));
    build_report_.anns_build_ms = timer.ElapsedMillis();
    build_report_.pq_ms = anns_->pq_ms();
    build_report_.anns_index_bytes = anns_->IndexMemoryBytes();
  }
  if (cts_job.valid()) {
    MIRA_RETURN_NOT_OK(cts_job.get());
  } else if (options.build_cts) {
    MIRA_RETURN_NOT_OK(build_cts());
  }

  if constexpr (obs::kObsEnabled) {
    auto& registry = obs::MetricRegistry::Global();
    for (Method method :
         {Method::kExhaustive, Method::kAnns, Method::kCts}) {
      const std::string suffix = ToLower(MethodToString(method));
      MethodMetrics& metrics = method_metrics_[static_cast<size_t>(method)];
      metrics.queries = &registry.GetCounter("mira.query.count." + suffix);
      metrics.errors = &registry.GetCounter("mira.query.errors." + suffix);
      metrics.latency_ms =
          &registry.GetHistogram("mira.query.latency_ms." + suffix);
    }
    degraded_metrics_.count =
        &registry.GetCounter("mira.query.degraded.count");
    degraded_metrics_.partial =
        &registry.GetCounter("mira.query.degraded.partial");
    degraded_metrics_.fallback =
        &registry.GetCounter("mira.query.degraded.fallback");
  }
  return Status::OK();
}

const Searcher* DiscoveryEngine::searcher(Method method) const {
  switch (method) {
    case Method::kExhaustive:
      return exhaustive_.get();
    case Method::kAnns:
      return anns_.get();
    case Method::kCts:
      return cts_.get();
  }
  return nullptr;
}

void DiscoveryEngine::RecordQueryMetrics(Method method, double millis, bool ok,
                                         uint64_t query_log_id) const {
  if constexpr (obs::kObsEnabled) {
    const MethodMetrics& metrics =
        method_metrics_[static_cast<size_t>(method)];
    if (metrics.queries == nullptr) return;
    metrics.queries->Increment();
    if (!ok) metrics.errors->Increment();
    metrics.latency_ms->RecordWithExemplar(millis, query_log_id);
  } else {
    (void)method;
    (void)millis;
    (void)ok;
    (void)query_log_id;
  }
}

void DiscoveryEngine::RecordDegradation(const Ranking& ranking,
                                        bool fell_back) const {
  if constexpr (obs::kObsEnabled) {
    if (degraded_metrics_.count == nullptr) return;
    if (ranking.degraded) degraded_metrics_.count->Increment();
    if (ranking.partial) degraded_metrics_.partial->Increment();
    if (fell_back) degraded_metrics_.fallback->Increment();
  } else {
    (void)ranking;
    (void)fell_back;
  }
}

uint64_t DiscoveryEngine::RecordQueryLog(Method method,
                                         const DiscoveryOptions& options,
                                         double millis, const Ranking* ranking,
                                         const obs::QueryTrace* trace) const {
  if constexpr (obs::kObsEnabled) {
    obs::QueryLogEntry entry;
    entry.SetMethod(MethodToString(method));
    entry.ok = ranking != nullptr;
    entry.k = static_cast<uint32_t>(options.top_k);
    entry.duration_ms = millis;
    if (ranking != nullptr) {
      entry.result_count = static_cast<uint32_t>(ranking->size());
      entry.degraded = ranking->degraded;
      entry.partial = ranking->partial;
    }
    if (!options.control.deadline.infinite()) {
      entry.budget_consumed =
          1.0 - options.control.deadline.FractionRemaining();
    }
    const bool traced = trace != nullptr && !trace->empty();
    if (traced) {
      entry.traced = true;
      entry.SetTopSpans(*trace);
    }
    obs::QueryLog& log = obs::QueryLog::Global();
    const uint64_t id = log.Record(entry);
    if (traced && log.IsSlow(millis)) {
      log.PromoteSlowTrace(id, millis, *trace);
    }
    return id;
  } else {
    (void)method;
    (void)options;
    (void)millis;
    (void)ranking;
    (void)trace;
    return 0;
  }
}

void DiscoveryEngine::PublishResourceMetrics() const {
  if constexpr (obs::kObsEnabled) {
    auto& registry = obs::MetricRegistry::Global();
    size_t total = 0;
    if (corpus_ != nullptr) {
      const size_t corpus_bytes =
          corpus_->rows.data().size() * sizeof(float) +
          corpus_->refs.size() * sizeof(CellRef) +
          (corpus_->cell_rows.size() + corpus_->cells_per_relation.size()) *
              sizeof(uint32_t);
      registry.GetGauge("mira.mem.corpus_bytes")
          .Set(static_cast<double>(corpus_bytes));
      total += corpus_bytes;
    }
    const auto publish = [&registry, &total](
                             const std::string& prefix,
                             const CollectionMemoryStats& stats) {
      registry.GetGauge(prefix + ".points_bytes")
          .Set(static_cast<double>(stats.points_bytes));
      registry.GetGauge(prefix + ".index_graph_bytes")
          .Set(static_cast<double>(stats.index.graph_bytes));
      registry.GetGauge(prefix + ".index_codes_bytes")
          .Set(static_cast<double>(stats.index.codes_bytes));
      registry.GetGauge(prefix + ".index_codebook_bytes")
          .Set(static_cast<double>(stats.index.codebook_bytes));
      registry.GetGauge(prefix + ".total_bytes")
          .Set(static_cast<double>(stats.total()));
      total += stats.total();
    };
    if (anns_ != nullptr) publish("mira.mem.anns", anns_->MemoryUsage());
    if (cts_ != nullptr) publish("mira.mem.cts", cts_->MemoryUsage());
    registry.GetGauge("mira.mem.total_bytes").Set(static_cast<double>(total));

    const ThreadPool* pool =
        exhaustive_ != nullptr ? exhaustive_->pool() : nullptr;
    if (pool != nullptr) {
      const ThreadPool::Stats stats = pool->GetStats();
      registry.GetGauge("mira.pool.exs.threads")
          .Set(static_cast<double>(stats.threads));
      registry.GetGauge("mira.pool.exs.queue_depth")
          .Set(static_cast<double>(stats.queued));
      registry.GetGauge("mira.pool.exs.running")
          .Set(static_cast<double>(stats.running));
      registry.GetGauge("mira.pool.exs.utilization")
          .Set(stats.threads == 0 ? 0.0
                                  : static_cast<double>(stats.running) /
                                        static_cast<double>(stats.threads));
    }
  }
}

Result<Ranking> DiscoveryEngine::SearchWithFallback(
    Method method, const std::string& query,
    const DiscoveryOptions& options) const {
  const Searcher* primary = this->searcher(method);
  if (primary == nullptr) {
    return Status::FailedPrecondition(
        std::string(MethodToString(method)) + " searcher was not built");
  }
  Result<Ranking> result = primary->Search(query, options);
  if (result.ok()) {
    RecordDegradation(*result, /*fell_back=*/false);
    return result;
  }
  // Only a deadline miss under an active control degrades; everything else
  // — including kCancelled, where the caller has walked away and any further
  // work is wasted — propagates as-is.
  if (!options.control.active() || !result.status().IsDeadlineExceeded()) {
    return result;
  }

  // The fallback: the cached ExS with the deadline lifted and the cancel
  // token kept. It is one dot per relation against precomputed means, so it
  // answers with the full, exact ExS ranking; only a cancellation during it
  // can still fail the query.
  DiscoveryOptions lifted = options;
  lifted.control.deadline = Deadline::Infinite();
  Result<Ranking> fallback = fallback_exs_->Search(query, lifted);
  if (!fallback.ok()) return fallback;
  fallback->degraded = true;
  RecordDegradation(*fallback, /*fell_back=*/true);
  return fallback;
}

Result<Ranking> DiscoveryEngine::Search(Method method, const std::string& query,
                                        const DiscoveryOptions& options) const {
  WallTimer timer;
  Result<Ranking> result = SearchWithFallback(method, query, options);
  const double millis = timer.ElapsedMillis();
  // Log first: the entry id becomes the latency exemplar, so /metricsz tail
  // buckets point back at the query that filled them.
  const uint64_t id = RecordQueryLog(method, options, millis,
                                     result.ok() ? &*result : nullptr,
                                     /*trace=*/nullptr);
  RecordQueryMetrics(method, millis, result.ok(), id);
  return result;
}

Result<TracedRanking> DiscoveryEngine::SearchTraced(
    Method method, const std::string& query,
    const DiscoveryOptions& options) const {
  TracedRanking out;
  WallTimer timer;
  {
    obs::ScopedTrace collect(&out.trace);
    obs::TraceSpan root("query");
    root.SetLabel(MethodToString(method));
    Result<Ranking> result = SearchWithFallback(method, query, options);
    if (!result.ok()) {
      const double millis = timer.ElapsedMillis();
      const uint64_t id =
          RecordQueryLog(method, options, millis, nullptr, /*trace=*/nullptr);
      RecordQueryMetrics(method, millis, false, id);
      return result.status();
    }
    out.ranking = result.MoveValue();
    root.AddCounter("results", static_cast<int64_t>(out.ranking.size()));
    root.AddCounter("degraded", out.ranking.degraded ? 1 : 0);
  }
  // The ScopedTrace is closed: the trace is complete (including any worker
  // spans merged at ParallelFor joins), so the log entry can summarize it.
  const double millis = timer.ElapsedMillis();
  const uint64_t id =
      RecordQueryLog(method, options, millis, &out.ranking, &out.trace);
  RecordQueryMetrics(method, millis, true, id);
  return out;
}

}  // namespace mira::discovery
