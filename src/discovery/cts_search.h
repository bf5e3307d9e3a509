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
  /// Clustering cost ceiling: when the corpus has more cells, HDBSCAN runs
  /// on a deterministic sample of this size and the remaining cells are
  /// assigned to the cluster of their nearest medoid (in reduced space).
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
/// Build: cell embeddings -> UMAP reduction -> HDBSCAN clustering -> medoid
/// per cluster (HDBSCAN has no native centers, so medoids are computed
/// manually); the medoids act as the cluster index. Search: the query is
/// compared against the medoids, then a search runs *inside the top clusters
/// only*, and relations are ranked by the average similarity of their
/// retrieved cells.
///
/// Storage: one matrix of normalized cell rows ordered by cluster, so a probe
/// scans one row range (~20 probes of a few dozen rows per query, too small
/// to pay for a collection each); clusters of 2048+ cells get an HNSW graph.
class CtsSearcher final : public Searcher {
 public:
  /// A non-null `pool` runs the order-independent parts of UMAP and HDBSCAN
  /// in parallel (see dimred::FitUmap, cluster::Hdbscan); the clustering is
  /// the same either way. Must not be called from a task of `pool`.
  [[nodiscard]] static Result<std::unique_ptr<CtsSearcher>> Build(
      const table::Federation& federation,
      std::shared_ptr<const CorpusEmbeddings> corpus,
      std::shared_ptr<const embed::SemanticEncoder> encoder,
      const CtsOptions& options = {}, ThreadPool* pool = nullptr);

  [[nodiscard]] Result<Ranking> Search(const std::string& query,
                         const DiscoveryOptions& options) const override;
  std::string name() const override { return "CTS"; }

  size_t num_clusters() const { return num_clusters_; }
  /// Fraction of cells assigned to the largest cluster (diagnostic).
  double largest_cluster_fraction() const { return largest_cluster_fraction_; }
  size_t IndexMemoryBytes() const;
  /// Resident-byte breakdown for the `mira.mem.cts.*` gauges: `index` is the
  /// rows, medoids and graphs, `points_bytes` the row->relation/offsets.
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
  std::shared_ptr<const embed::SemanticEncoder> encoder_;
  size_t num_clusters_ = 0;
  size_t num_relations_ = 0;
  double largest_cluster_fraction_ = 0.0;
  double umap_ms_ = 0.0;
  double hdbscan_ms_ = 0.0;
  /// Cells ordered by cluster, then cell index; cluster c owns rows
  /// [cluster_begin_[c], cluster_begin_[c + 1]). Medoids: one per cluster.
  vecmath::Matrix rows_, medoids_;
  std::vector<size_t> cluster_begin_;
  std::vector<table::RelationId> row_relation_;
  /// Non-null for clusters of 2048+ cells (graph ids are rows).
  std::vector<std::unique_ptr<index::HnswIndex>> cluster_graphs_;
};

}  // namespace mira::discovery

#endif  // MIRA_DISCOVERY_CTS_SEARCH_H_
