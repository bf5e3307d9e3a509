#include "discovery/anns_search.h"

#include <algorithm>

#include "obs/trace.h"
#include "vecmath/vector_ops.h"

namespace mira::discovery {

namespace {
constexpr char kCellCollection[] = "cells";
}  // namespace

AnnsSearcher::AnnsSearcher(AnnsOptions options, size_t num_relations)
    : options_(options), num_relations_(num_relations) {}

Result<std::unique_ptr<AnnsSearcher>> AnnsSearcher::Build(
    const table::Federation& federation,
    std::shared_ptr<const CorpusEmbeddings> corpus,
    std::shared_ptr<const embed::SemanticEncoder> encoder,
    const AnnsOptions& options) {
  if (corpus == nullptr || encoder == nullptr) {
    return Status::InvalidArgument("anns: null corpus/encoder");
  }

  std::unique_ptr<AnnsSearcher> searcher(
      new AnnsSearcher(options, corpus->num_relations));
  // Keep the encoder alive through the shared_ptr captured below.
  searcher->encoder_ = encoder;

  vectordb::CollectionParams params;
  params.dim = corpus->dim();
  params.metric = vecmath::Metric::kCosine;
  params.index_kind = options.use_pq ? vectordb::IndexKind::kHnswPq
                                     : vectordb::IndexKind::kHnsw;
  params.hnsw_m = options.hnsw_m;
  params.hnsw_ef_construction = options.hnsw_ef_construction;
  params.hnsw_ef_search = options.ef_search;
  params.pq_subquantizers = options.pq_subquantizers;
  params.pq_nbits = options.pq_nbits;
  params.seed = options.seed;

  MIRA_ASSIGN_OR_RETURN(vectordb::Collection * cells,
                        searcher->db_.CreateCollection(kCellCollection, params));
  // Step 1 of Algorithm 2: populate the vector database. Each point carries
  // the relation id and attribute name as payload metadata.
  for (size_t i = 0; i < corpus->num_cells(); ++i) {
    const CellRef& ref = corpus->refs[i];
    vectordb::Point point;
    point.id = static_cast<uint64_t>(i);
    point.vector = corpus->vectors.RowVec(i);
    point.payload.SetInt("rel", static_cast<int64_t>(ref.relation));
    searcher->cell_relation_.push_back(ref.relation);
    point.payload.SetString(
        "attr", federation.relation(ref.relation).schema[ref.col]);
    MIRA_RETURN_NOT_OK(cells->Upsert(std::move(point)));
  }
  MIRA_RETURN_NOT_OK(cells->BuildIndex());
  return searcher;
}

Result<Ranking> AnnsSearcher::Search(const std::string& query,
                                     const DiscoveryOptions& options) const {
  vecmath::Vec q;
  {
    obs::TraceSpan span("embed_query");
    q = encoder_->EncodeText(query);
    vecmath::NormalizeInPlace(&q);
  }

  MIRA_ASSIGN_OR_RETURN(const vectordb::Collection* cells,
                        db_.GetCollection(kCellCollection));

  // Graceful degradation under a deadline: shrink the HNSW beam as the
  // budget drains (full ef above 50% remaining, half above 25%, quarter
  // below that — floored so the beam still covers the candidate ask). An
  // inactive control leaves ef untouched, keeping that path bit-identical.
  const QueryControl& control = options.control;
  size_t ef = options_.ef_search;
  bool degraded = false;
  if (control.active()) {
    double fraction = control.deadline.FractionRemaining();
    if (fraction < 0.25) {
      ef /= 4;
      degraded = true;
    } else if (fraction < 0.5) {
      ef /= 2;
      degraded = true;
    }
    ef = std::max(ef, std::max(options_.cell_candidates, size_t{16}));
    degraded = degraded && ef < options_.ef_search;
  }

  std::vector<vectordb::SearchHit> hits;
  {
    obs::TraceSpan span("anns.hnsw_search");
    MIRA_ASSIGN_OR_RETURN(
        hits, cells->Search(q, options_.cell_candidates, ef, {},
                            control.active() ? &control : nullptr));
    span.AddCounter("candidates_requested",
                    static_cast<int64_t>(options_.cell_candidates));
    span.AddCounter("ef", static_cast<int64_t>(ef));
    span.AddCounter("hits", static_cast<int64_t>(hits.size()));
  }

  // Step 2 of Algorithm 2: the relation score is the average similarity of
  // the relation's vectors among the approximate nearest neighbors. Hit ids
  // are cell indexes; sums accumulate in hit order.
  obs::TraceSpan rank_span("anns.group_relations");
  std::vector<std::pair<double, uint32_t>> grouped(num_relations_);
  for (const auto& hit : hits) {
    auto& [sum, count] = grouped[cell_relation_[hit.id]];
    sum += hit.score;
    ++count;
  }
  Ranking ranking;
  for (table::RelationId rid = 0; rid < num_relations_; ++rid) {
    const auto& [sum, count] = grouped[rid];
    if (count > 0) ranking.push_back({rid, static_cast<float>(sum / count)});
  }
  rank_span.AddCounter("relations", static_cast<int64_t>(ranking.size()));
  std::sort(ranking.begin(), ranking.end(),
            [](const DiscoveryHit& a, const DiscoveryHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.relation < b.relation;
            });
  ApplyThresholdAndTopK(&ranking, options);
  ranking.degraded = degraded;
  return ranking;
}

size_t AnnsSearcher::IndexMemoryBytes() const {
  auto cells = db_.GetCollection(kCellCollection);
  return cells.ok() ? (*cells)->IndexMemoryBytes() : 0;
}

vectordb::CollectionMemoryStats AnnsSearcher::MemoryUsage() const {
  auto cells = db_.GetCollection(kCellCollection);
  return cells.ok() ? (*cells)->MemoryUsage()
                    : vectordb::CollectionMemoryStats{};
}

}  // namespace mira::discovery
