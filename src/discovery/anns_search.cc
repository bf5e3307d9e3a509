#include "discovery/anns_search.h"

#include <algorithm>

#include "common/failpoint.h"
#include "index/hnsw_index.h"
#include "obs/trace.h"
#include "vecmath/vector_ops.h"

namespace mira::discovery {

AnnsSearcher::AnnsSearcher(AnnsOptions options, size_t num_relations)
    : options_(options), num_relations_(num_relations) {}

AnnsSearcher::~AnnsSearcher() = default;

Result<std::unique_ptr<AnnsSearcher>> AnnsSearcher::Build(
    const table::Federation& /*federation*/,
    std::shared_ptr<const CorpusEmbeddings> corpus,
    std::shared_ptr<const embed::SemanticEncoder> encoder,
    const AnnsOptions& options, ThreadPool* pool) {
  if (corpus == nullptr || encoder == nullptr) {
    return Status::InvalidArgument("anns: null corpus/encoder");
  }

  std::unique_ptr<AnnsSearcher> searcher(
      new AnnsSearcher(options, corpus->num_relations));
  // Keep the encoder alive through the shared_ptr captured below.
  searcher->encoder_ = encoder;

  index::HnswOptions hnsw;
  hnsw.M = options.hnsw_m;
  hnsw.ef_construction = options.hnsw_ef_construction;
  hnsw.ef_search = options.ef_search;
  hnsw.metric = vecmath::Metric::kCosine;
  hnsw.seed = options.seed;
  if (options.use_pq) {
    index::PqOptions pq;
    // Shrink m for small dims so it always divides; PQ needs subvectors.
    size_t m = options.pq_subquantizers;
    while (m > 1 && corpus->dim() % m != 0) --m;
    pq.num_subquantizers = m;
    hnsw.quantization = pq;
  }
  searcher->index_ = std::make_unique<index::HnswIndex>(hnsw);

  // Step 1 of Algorithm 2: index every distinct cell embedding once: the
  // store's rows, under their row numbers.
  const size_t num_rows = corpus->num_rows();
  searcher->index_->Reserve(num_rows);
  for (size_t d = 0; d < num_rows; ++d) {
    MIRA_RETURN_NOT_OK(searcher->index_->Add(d, corpus->rows.RowVec(d)));
  }
  // CSR posting lists from the store's cell -> row index, filled in
  // ascending cell order, and each cell's relation.
  std::vector<uint32_t>& offsets = searcher->posting_offsets_;
  offsets.assign(num_rows + 1, 0);
  for (uint32_t d : corpus->cell_rows) ++offsets[d + 1];
  for (size_t d = 0; d < num_rows; ++d) offsets[d + 1] += offsets[d];
  searcher->posting_cells_.resize(corpus->num_cells());
  searcher->cell_relation_.resize(corpus->num_cells());
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (uint32_t i = 0; i < corpus->num_cells(); ++i) {
    searcher->posting_cells_[cursor[corpus->cell_rows[i]]++] = i;
    searcher->cell_relation_[i] = corpus->refs[i].relation;
  }
  MIRA_FAILPOINT("index.build");
  MIRA_RETURN_NOT_OK(searcher->index_->Build(pool));
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

  // Each hit is a distinct vector; its cells, ascending, are taken until
  // cell_candidates cells are. Asking HNSW for cell_candidates hits always
  // covers that many cells.
  std::vector<vecmath::ScoredId> hits;
  size_t cells = 0;
  {
    obs::TraceSpan span("anns.hnsw_search");
    MIRA_ASSIGN_OR_RETURN(
        hits, index_->Search(q, {options_.cell_candidates, ef,
                                 control.active() ? &control : nullptr}));
    for (size_t h = 0; h < hits.size() && cells < options_.cell_candidates;
         ++h) {
      cells += posting_offsets_[hits[h].id + 1] - posting_offsets_[hits[h].id];
    }
    cells = std::min(cells, options_.cell_candidates);
    span.AddCounter("candidates_requested",
                    static_cast<int64_t>(options_.cell_candidates));
    span.AddCounter("ef", static_cast<int64_t>(ef));
    span.AddCounter("hits", static_cast<int64_t>(hits.size()));
    span.AddCounter("cells", static_cast<int64_t>(cells));
  }
  MIRA_FAILPOINT("anns.search");

  // Step 2 of Algorithm 2: the relation score is the average similarity of
  // the relation's cells among the approximate nearest neighbors. Sums
  // accumulate in hit order, then cell order.
  obs::TraceSpan rank_span("anns.group_relations");
  std::vector<std::pair<double, uint32_t>> grouped(num_relations_);
  size_t remaining = cells;
  for (size_t h = 0; remaining > 0; ++h) {
    const uint32_t begin = posting_offsets_[hits[h].id];
    const uint32_t end = posting_offsets_[hits[h].id + 1];
    for (uint32_t j = begin; j < end && remaining > 0; ++j, --remaining) {
      auto& [sum, count] = grouped[cell_relation_[posting_cells_[j]]];
      sum += hits[h].score;
      ++count;
    }
  }
  Ranking ranking;
  for (table::RelationId rid = 0; rid < num_relations_; ++rid) {
    const auto& [sum, count] = grouped[rid];
    if (count > 0) ranking.push_back({rid, static_cast<float>(sum / count)});
  }
  rank_span.AddCounter("relations", static_cast<int64_t>(ranking.size()));
  ApplyThresholdAndTopK(&ranking, options);
  ranking.degraded = degraded;
  return ranking;
}

size_t AnnsSearcher::IndexMemoryBytes() const {
  return index_->MemoryUsage().total();
}

double AnnsSearcher::pq_ms() const { return index_->pq_build_ms(); }

CollectionMemoryStats AnnsSearcher::MemoryUsage() const {
  CollectionMemoryStats stats;
  stats.points_bytes =
      cell_relation_.size() * sizeof(table::RelationId) +
      (posting_offsets_.size() + posting_cells_.size()) * sizeof(uint32_t);
  stats.index = index_->MemoryUsage();
  return stats;
}

}  // namespace mira::discovery
