#ifndef MIRA_DISCOVERY_ANNS_SEARCH_H_
#define MIRA_DISCOVERY_ANNS_SEARCH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "discovery/corpus_embeddings.h"
#include "discovery/types.h"
#include "embed/encoder.h"

namespace mira::index {
class HnswIndex;
}  // namespace mira::index

namespace mira::discovery {

/// Build/search knobs of the ANNS method.
struct AnnsOptions {
  /// Cell-level nearest neighbors retrieved per query before grouping by
  /// relation. Larger finds more candidate relations but costs time.
  size_t cell_candidates = 288;
  /// HNSW beam width at query time. Deliberately moderate: ANNS trades a
  /// little accuracy for speed (§4.2); CTS searches its selected clusters
  /// exactly and recovers that accuracy.
  size_t ef_search = 96;
  /// HNSW graph degree / construction beam.
  size_t hnsw_m = 16;
  size_t hnsw_ef_construction = 200;
  /// PQ subquantizers (auto-adjusted to divide the dimension).
  size_t pq_subquantizers = 16;
  /// Disable PQ compression (ablation knob; the paper's method uses PQ).
  bool use_pq = true;
  uint64_t seed = 7;
};

/// Approximate Nearest Neighbors Search — Algorithm 2 (§4.2).
///
/// Build: each distinct cell vector — a row of the CorpusEmbeddings store —
/// is HNSW indexed once, under its row number, with Product-Quantization
/// compressed traversal and exact rescoring.
/// Search: embed the query, fetch `cell_candidates` approximate nearest
/// distinct vectors, take their cells in hit order (each hit's in ascending
/// cell id, from the store's posting list) until `cell_candidates` cells are
/// taken, and rank relations by the average similarity of their taken cells
/// (RelationMeans).
class AnnsSearcher final : public Searcher {
 public:
  /// Builds the index from pre-computed corpus embeddings. A non-null
  /// `pool` trains and encodes PQ beside the serial graph insertion (see
  /// index::HnswIndex::Build); the index is the same either way. Must not be
  /// called from a task of `pool`.
  [[nodiscard]] static Result<std::unique_ptr<AnnsSearcher>> Build(
      std::shared_ptr<const CorpusEmbeddings> corpus,
      std::shared_ptr<const embed::SemanticEncoder> encoder,
      const AnnsOptions& options = {}, ThreadPool* pool = nullptr);

  [[nodiscard]] Result<Ranking> Search(const std::string& query,
                         const DiscoveryOptions& options) const override;
  std::string name() const override { return "ANNS"; }

  /// Resident bytes of the vector index (storage-reduction reporting).
  size_t IndexMemoryBytes() const;

  /// Resident-byte breakdown for the `mira.mem.anns.*` gauges: `index` is
  /// the HNSW graph, vectors and PQ codes of the distinct vectors.
  /// `points_bytes` is 0: a hit reads the store's posting list and cell
  /// refs, counted in `mira.mem.corpus_bytes`.
  CollectionMemoryStats MemoryUsage() const;
  const AnnsOptions& options() const { return options_; }
  /// Wall time of PQ training and encoding during Build, on its own thread
  /// (BuildReport::pq_ms); 0 without PQ.
  double pq_ms() const;

  ~AnnsSearcher() override;

 private:
  explicit AnnsSearcher(AnnsOptions options);

  AnnsOptions options_;
  /// The store: its rows are the HNSW ids, its posting list their cells.
  std::shared_ptr<const CorpusEmbeddings> corpus_;
  std::shared_ptr<const embed::SemanticEncoder> encoder_;
  std::unique_ptr<index::HnswIndex> index_;
};

}  // namespace mira::discovery

#endif  // MIRA_DISCOVERY_ANNS_SEARCH_H_
