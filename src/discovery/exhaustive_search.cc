#include "discovery/exhaustive_search.h"

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
  // avg_s(r) = (1/n_r) Σ q·c_i = q·m_r: sum each relation's rows in double,
  // in corpus row order (a relation's rows need not be contiguous), and
  // store the mean as float. Relations without cells keep a zero row and
  // are skipped at ranking time.
  const size_t d = corpus_->dim();
  std::vector<double> sums(corpus_->num_relations * d, 0.0);
  for (size_t i = 0; i < corpus_->num_cells(); ++i) {
    const float* row = corpus_->vectors.Row(i);
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
  // avg_s per relation; only relations [0, reached) are ranked.
  std::vector<float> avg(num_relations, 0.0f);
  size_t reached = num_relations;
  const bool track_partial = control.active() && options_.allow_partial;
  size_t cells_scanned = corpus_->num_cells();

  // Aggregate scan counters live on this call-site span; the faithful pool
  // paths additionally record per-relation worker spans — ParallelFor
  // propagates the trace context and splices them in under this span at
  // the join.
  obs::TraceSpan scan_span("exs.scan");

  if (options_.reuse_corpus_embeddings) {
    // "ExS-cached" ablation: one dot per relation against its mean cell
    // vector (q and the cells are unit-normalized, so each q·c_i is the
    // cosine and their mean is q·m_r). Relations are scored in runs of at
    // least kRunCells cells with a budget check before each run. In partial
    // mode run 0 always executes (a pre-expired budget still yields hits)
    // and the relations past the cut go missing.
    constexpr size_t kRunCells = 1024;
    cells_scanned = 0;
    size_t begin = 0;
    while (begin < num_relations) {
      if (!track_partial) {
        MIRA_RETURN_NOT_OK(control.Check("exs.scan"));
      } else if (begin > 0 && control.ShouldStop()) {
        break;
      }
      size_t end = begin;
      const size_t run_start = cells_scanned;
      while (end < num_relations && cells_scanned - run_start < kRunCells) {
        cells_scanned += corpus_->cells_per_relation[end++];
      }
      vecmath::DotBatch(q.data(), relation_means_.Row(begin), end - begin, d,
                        &avg[begin]);
      begin = end;
    }
    reached = begin;
  } else {
    // Faithful Algorithm 1: every attribute value is embedded inside the
    // query loop (lines 3-8) before its similarity is computed. With a pool
    // the relations are partitioned across workers (scores are per-relation
    // sums, so partitioning by relation needs no synchronization).
    auto scan_relation = [&](size_t rid) {
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
      const uint32_t cells = corpus_->cells_per_relation[rid];
      if (cells > 0) {
        avg[rid] = static_cast<float>(sum / static_cast<double>(cells));
      }
    };
    // Pool paths wrap each relation in a worker span (serial paths stay
    // covered by the call-site exs.scan span alone, keeping serial traces
    // from growing one span per relation).
    auto scan_relation_traced = [&](size_t rid) {
      obs::TraceSpan span("exs.scan_relation");
      span.AddCounter("cells",
                      static_cast<int64_t>(corpus_->cells_per_relation[rid]));
      scan_relation(rid);
    };
    if (track_partial) {
      // Serial with a per-relation budget check; relation 0 always runs.
      size_t scanned = 0;
      for (size_t rid = 0; rid < federation_->size(); ++rid) {
        if (rid > 0 && control.ShouldStop()) {
          reached = rid;
          break;
        }
        scan_relation(rid);
        scanned += corpus_->cells_per_relation[rid];
      }
      cells_scanned = scanned;
    } else if (control.active()) {
      if (pool_ != nullptr) {
        MIRA_RETURN_NOT_OK(ParallelForCancellable(
            pool_.get(), 0, federation_->size(), &control, [&](size_t rid) {
              scan_relation_traced(rid);
              return Status::OK();
            }));
      } else {
        for (size_t rid = 0; rid < federation_->size(); ++rid) {
          MIRA_RETURN_NOT_OK(control.Check("exs.scan"));
          scan_relation(rid);
        }
      }
    } else if (pool_ != nullptr) {
      ParallelFor(pool_.get(), 0, federation_->size(), scan_relation_traced);
    } else {
      for (size_t rid = 0; rid < federation_->size(); ++rid) {
        scan_relation(rid);
      }
    }
  }

  scan_span.AddCounter("cells_scanned", static_cast<int64_t>(cells_scanned));
  scan_span.AddCounter("dist_comps", static_cast<int64_t>(cells_scanned));
  scan_span.AddCounter("relations_scanned", static_cast<int64_t>(reached));
  scan_span.AddCounter("reused_embeddings",
                       options_.reuse_corpus_embeddings ? 1 : 0);
  scan_span.Finish();
  if constexpr (obs::kObsEnabled) {
    static obs::Counter& cells_metric =
        obs::MetricRegistry::Global().GetCounter("mira.exs.cells_scanned");
    cells_metric.Add(cells_scanned);
  }

  // Sort / threshold / top-k over the relations reached (lines 10-13).
  Ranking ranking;
  ranking.reserve(reached);
  for (table::RelationId rid = 0; rid < reached; ++rid) {
    if (corpus_->cells_per_relation[rid] == 0) continue;
    ranking.push_back({rid, avg[rid]});
  }
  ApplyThresholdAndTopK(&ranking, options);
  ranking.partial = reached < num_relations;
  ranking.degraded = ranking.partial;
  return ranking;
}

}  // namespace mira::discovery
