#ifndef MIRA_DISCOVERY_CTS_SEARCH_H_
#define MIRA_DISCOVERY_CTS_SEARCH_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/hdbscan.h"
#include "common/threadpool.h"
#include "dimred/umap.h"
#include "discovery/corpus_embeddings.h"
#include "discovery/types.h"
#include "embed/encoder.h"
#include "vecmath/matrix.h"

namespace mira::index {
class HnswIndex;
}  // namespace mira::index

namespace mira::discovery {

/// Build/search knobs of the CTS method.
struct CtsOptions {
  /// UMAP configuration for the dimensionality-reduction step.
  dimred::UmapOptions umap;
  /// HDBSCAN configuration for the clustering step.
  cluster::HdbscanOptions hdbscan;
  /// Number of most-similar cluster medoids the query is matched against.
  size_t cluster_candidates = 20;
  /// Cell-level candidates retrieved inside the selected clusters.
  size_t cell_candidates = 768;
  /// Clustering cost ceiling: when the store has more distinct rows,
  /// HDBSCAN runs on a deterministic sample of this many rows. A row left
  /// out takes the cluster of its nearest medoid (in reduced space).
  size_t max_clustering_points = 20000;
  uint64_t seed = 7;

  CtsOptions() {
    umap.target_dim = 5;
    umap.n_neighbors = 15;
    umap.n_epochs = 150;
    hdbscan.min_cluster_size = 8;
  }
};

/// Clustered Targeted Search — Algorithm 3 (§4.3), the paper's central
/// contribution.
///
/// Build: cell embeddings -> UMAP reduction -> HDBSCAN clustering of the
/// store's distinct rows, each weighted by its number of cells -> medoid per
/// cluster (HDBSCAN has no native centers, so medoids are computed
/// manually); the medoids act as the cluster index. Search: the query is
/// compared against the medoids, then a search runs *inside the top clusters
/// only*, and relations are ranked by the average similarity of their
/// retrieved cells.
///
/// Storage: every store row is in exactly one cluster, and so are its
/// cells. The store's rows are normalized once into one matrix grouped by
/// cluster, each cluster's rows in row order, so a probe scans one row range
/// (~20 probes of a few dozen rows per query, too small to pay for a
/// collection each); clusters of 2048+ rows get an HNSW graph over them. A
/// retrieved row expands, through the store's posting list, to its cells
/// (RelationMeans).
class CtsSearcher final : public Searcher {
 public:
  /// A non-null `pool` runs the order-independent parts of UMAP and HDBSCAN
  /// in parallel (see dimred::FitUmap, cluster::Hdbscan); the clustering is
  /// the same either way. Must not be called from a task of `pool`.
  [[nodiscard]] static Result<std::unique_ptr<CtsSearcher>> Build(
      std::shared_ptr<const CorpusEmbeddings> corpus,
      std::shared_ptr<const embed::SemanticEncoder> encoder,
      const CtsOptions& options = {}, ThreadPool* pool = nullptr);

  [[nodiscard]] Result<Ranking> Search(const std::string& query,
                         const DiscoveryOptions& options) const override;
  std::string name() const override { return "CTS"; }

  size_t num_clusters() const { return num_clusters_; }
  /// Fraction of cells whose row is in the largest cluster (diagnostic).
  double largest_cluster_fraction() const { return largest_cluster_fraction_; }
  size_t IndexMemoryBytes() const;
  /// Resident-byte breakdown for the `mira.mem.cts.*` gauges: `index` is the
  /// clusters' rows (one per store row), medoids and graphs; `points_bytes`
  /// each block row's store row and the cluster offsets.
  CollectionMemoryStats MemoryUsage() const;
  const CtsOptions& options() const { return options_; }
  /// Wall times of Build's UMAP and HDBSCAN stages (BuildReport::umap_ms,
  /// hdbscan_ms); 0 when the corpus was too small to cluster.
  double umap_ms() const { return umap_ms_; }
  double hdbscan_ms() const { return hdbscan_ms_; }

  ~CtsSearcher() override;

 private:
  explicit CtsSearcher(CtsOptions options);

  CtsOptions options_;
  std::shared_ptr<const CorpusEmbeddings> corpus_;
  std::shared_ptr<const embed::SemanticEncoder> encoder_;
  size_t num_clusters_ = 0;
  double largest_cluster_fraction_ = 0.0;
  double umap_ms_ = 0.0;
  double hdbscan_ms_ = 0.0;
  /// The block: cluster c owns rows [cluster_begin_[c], cluster_begin_[c +
  /// 1]) of rows_, its store rows in row order; block row j is store row
  /// block_rows_[j], normalized. Medoids: one per cluster.
  vecmath::Matrix rows_, medoids_;
  std::vector<size_t> cluster_begin_;
  std::vector<uint32_t> block_rows_;
  /// Non-null for clusters of 2048+ rows (graph ids are block rows).
  std::vector<std::unique_ptr<index::HnswIndex>> cluster_graphs_;
};

/// CtsSearcher::Build's stages, exposed for tests.
namespace internal {

/// The cluster of every store row, from HDBSCAN's `labels` of the rows in
/// `sample`. A sampled row takes its own label; a noise row, or one left out
/// of the sample, takes its nearest medoid in the reduced space (row r of
/// `points` is row r's reduced point, row m of `medoid_points` cluster m's).
std::vector<int32_t> AssignRows(const vecmath::Matrix& points,
                                const std::vector<size_t>& sample,
                                const std::vector<int32_t>& labels,
                                const vecmath::Matrix& medoid_points);

}  // namespace internal

}  // namespace mira::discovery

#endif  // MIRA_DISCOVERY_CTS_SEARCH_H_
