#include "discovery/exhaustive_search.h"

#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira::discovery {

ExhaustiveSearcher::ExhaustiveSearcher(
    const table::Federation* federation,
    std::shared_ptr<const CorpusEmbeddings> corpus,
    std::shared_ptr<const embed::SemanticEncoder> encoder, ExsOptions options)
    : federation_(federation),
      corpus_(std::move(corpus)),
      encoder_(std::move(encoder)),
      options_(options) {
  MIRA_CHECK(corpus_ != nullptr && encoder_ != nullptr);
  MIRA_CHECK(options_.reuse_corpus_embeddings || federation_ != nullptr);
  if (!options_.reuse_corpus_embeddings) {
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    }
    return;
  }
  // avg_s(r) = (1/n_r) Σ q·c_i = q·m_r: sum each relation's cell vectors in
  // double, cell by cell in corpus order (a relation's cells need not be
  // contiguous, and a repeated vector is added once per cell), and store
  // the mean as float. Relations without cells keep a zero row and are
  // skipped at ranking time.
  const size_t d = corpus_->dim();
  const vecmath::RowsView cells = corpus_->CellVectors();
  std::vector<double> sums(corpus_->num_relations * d, 0.0);
  for (size_t i = 0; i < corpus_->num_cells(); ++i) {
    const float* row = cells.Row(i);
    double* sum = &sums[corpus_->refs[i].relation * d];
    for (size_t j = 0; j < d; ++j) sum[j] += row[j];
  }
  relation_means_ = vecmath::Matrix(corpus_->num_relations, d);
  for (size_t rid = 0; rid < corpus_->num_relations; ++rid) {
    const uint32_t cells = corpus_->cells_per_relation[rid];
    if (cells == 0) continue;
    float* mean = relation_means_.Row(rid);
    for (size_t j = 0; j < d; ++j) {
      mean[j] = static_cast<float>(sums[rid * d + j] /
                                   static_cast<double>(cells));
    }
  }
}

Result<Ranking> ExhaustiveSearcher::Search(const std::string& query,
                                           const DiscoveryOptions& options) const {
  // Embed Q -> q' (Algorithm 1, line 1).
  vecmath::Vec q;
  {
    obs::TraceSpan span("embed_query");
    q = encoder_->EncodeText(query);
    vecmath::NormalizeInPlace(&q);
  }

  const QueryControl& control = options.control;
  const size_t d = corpus_->dim();
  const size_t num_relations = corpus_->num_relations;
  std::vector<float> avg(num_relations, 0.0f);  // avg_s per relation

  // Aggregate scan counters live on this call-site span; the faithful pool
  // path additionally records per-relation worker spans, which the parallel
  // loop splices in under this span at the join.
  obs::TraceSpan scan_span("exs.scan");

  if (options_.reuse_corpus_embeddings) {
    // "ExS-cached" ablation: one dot per relation against its mean cell
    // vector (q and the cells are unit-normalized, so each q·c_i is the
    // cosine and their mean is q·m_r). The whole scan is one batch, so the
    // budget is checked once, before it.
    MIRA_RETURN_NOT_OK(control.Check("exs.scan"));
    vecmath::DotBatch(q.data(), relation_means_.data().data(), num_relations,
                      d, avg.data());
  } else {
    // Faithful Algorithm 1: every attribute value is embedded inside the
    // query loop (lines 3-8) before its similarity is computed. With a pool
    // the relations are partitioned across workers (scores are per-relation
    // sums, so partitioning by relation needs no synchronization), and each
    // gets a worker span; the serial scan stays covered by exs.scan alone,
    // keeping serial traces from growing one span per relation.
    const bool pooled = pool_ != nullptr;
    MIRA_RETURN_NOT_OK(ParallelForCancellable(
        pool_.get(), 0, num_relations, control.active() ? &control : nullptr,
        [&](size_t rid) {
          const uint32_t cells = corpus_->cells_per_relation[rid];
          std::optional<obs::TraceSpan> span;
          if (pooled) {
            span.emplace("exs.scan_relation");
            span->AddCounter("cells", static_cast<int64_t>(cells));
          }
          const table::Relation& relation =
              federation_->relation(static_cast<table::RelationId>(rid));
          double sum = 0.0;
          for (const auto& row : relation.rows) {
            for (const auto& cell : row) {
              if (cell.empty()) continue;
              vecmath::Vec w = encoder_->EncodeText(cell);
              vecmath::NormalizeInPlace(&w);
              sum += vecmath::Dot(q.data(), w.data(), d);
            }
          }
          if (cells > 0) {
            avg[rid] = static_cast<float>(sum / static_cast<double>(cells));
          }
          return Status::OK();
        }));
  }

  const size_t cells_scanned = corpus_->num_cells();
  scan_span.AddCounter("cells_scanned", static_cast<int64_t>(cells_scanned));
  scan_span.AddCounter("dist_comps", static_cast<int64_t>(cells_scanned));
  scan_span.AddCounter("relations_scanned",
                       static_cast<int64_t>(num_relations));
  scan_span.AddCounter("reused_embeddings",
                       options_.reuse_corpus_embeddings ? 1 : 0);
  scan_span.Finish();
  if constexpr (obs::kObsEnabled) {
    static obs::Counter& cells_metric =
        obs::MetricRegistry::Global().GetCounter("mira.exs.cells_scanned");
    cells_metric.Add(cells_scanned);
  }

  // Sort / threshold / top-k (lines 10-13).
  Ranking ranking;
  ranking.reserve(num_relations);
  for (table::RelationId rid = 0; rid < num_relations; ++rid) {
    if (corpus_->cells_per_relation[rid] == 0) continue;
    ranking.push_back({rid, avg[rid]});
  }
  ApplyThresholdAndTopK(&ranking, options);
  return ranking;
}

}  // namespace mira::discovery
