#include "discovery/anns_search.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
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

  // Step 1 of Algorithm 2: index every distinct cell embedding once, under
  // its distinct-row number, in the order of its first cell.
  const size_t num_distinct = searcher->GroupCells(corpus->vectors);
  searcher->index_->Reserve(num_distinct);
  for (size_t d = 0; d < num_distinct; ++d) {
    MIRA_RETURN_NOT_OK(searcher->index_->Add(
        d, corpus->vectors.RowVec(
               searcher->posting_cells_[searcher->posting_offsets_[d]])));
  }
  searcher->cell_relation_.reserve(corpus->num_cells());
  for (const CellRef& ref : corpus->refs) {
    searcher->cell_relation_.push_back(ref.relation);
  }
  MIRA_FAILPOINT("index.build");
  MIRA_RETURN_NOT_OK(searcher->index_->Build(pool));
  return searcher;
}

size_t AnnsSearcher::GroupCells(const vecmath::Matrix& vectors) {
  const size_t n = vectors.rows();
  const size_t row_bytes = vectors.cols() * sizeof(float);
  // One sort over (row hash, cell) puts every copy of a row in one run of
  // equal hashes, cells ascending; memcmp confirms each match, so a hash
  // collision only costs a comparison. node[cell] becomes the cell's first
  // copy, then (below) its distinct-row number.
  std::vector<std::pair<uint64_t, uint32_t>> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    keyed[i] = {Checksum64::Hash(vectors.Row(i), row_bytes),
                static_cast<uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> node(n);
  std::vector<uint32_t> firsts;  // first cells of the current run's rows
  for (size_t begin = 0, end = 0; begin < n; begin = end) {
    firsts.clear();
    for (end = begin; end < n && keyed[end].first == keyed[begin].first;
         ++end) {
      const uint32_t cell = keyed[end].second;
      node[cell] = cell;
      for (uint32_t first : firsts) {
        if (std::memcmp(vectors.Row(first), vectors.Row(cell), row_bytes) ==
            0) {
          node[cell] = first;
          break;
        }
      }
      if (node[cell] == cell) firsts.push_back(cell);
    }
  }
  // Number the distinct rows in first-cell order: a copy's first cell is
  // lower, so it is already numbered.
  uint32_t num_distinct = 0;
  for (size_t i = 0; i < n; ++i) {
    node[i] = node[i] == i ? num_distinct++ : node[node[i]];
  }
  // CSR posting lists, filled in ascending cell order.
  posting_offsets_.assign(num_distinct + 1, 0);
  for (uint32_t d : node) ++posting_offsets_[d + 1];
  for (size_t d = 0; d < num_distinct; ++d) {
    posting_offsets_[d + 1] += posting_offsets_[d];
  }
  posting_cells_.resize(n);
  std::vector<uint32_t> cursor(posting_offsets_.begin(),
                               posting_offsets_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    posting_cells_[cursor[node[i]]++] = static_cast<uint32_t>(i);
  }
  return num_distinct;
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
