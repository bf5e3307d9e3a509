#ifndef MIRA_CLUSTER_HDBSCAN_H_
#define MIRA_CLUSTER_HDBSCAN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/threadpool.h"
#include "vecmath/matrix.h"

namespace mira::cluster {

/// Label assigned to noise points.
inline constexpr int32_t kNoise = -1;

/// Options of the HDBSCAN* implementation (Campello et al.; McInnes et al.
/// [31]). Density-based, hierarchical, noise-aware — chosen by the paper for
/// its ability to form meaningful clusters from the non-convex shapes of
/// tabular text embeddings (§4.3).
struct HdbscanOptions {
  /// Smallest subtree that counts as a cluster in the condensed tree.
  size_t min_cluster_size = 8;
  /// Neighborhood size for core distances; 0 means min_cluster_size.
  size_t min_samples = 0;
};

/// One cluster of the flat extraction.
struct HdbscanCluster {
  /// Row indices of the members.
  std::vector<size_t> members;
  /// Excess-of-mass stability of the selected condensed-tree node.
  double stability = 0.0;
};

struct HdbscanResult {
  /// Cluster label per input row; kNoise for outliers.
  std::vector<int32_t> labels;
  /// Clusters indexed by label.
  std::vector<HdbscanCluster> clusters;

  size_t num_clusters() const { return clusters.size(); }
  size_t num_noise() const;
};

/// Runs HDBSCAN* over the rows of `data` with Euclidean base distance.
///
/// Pipeline: core distances (min_samples-NN) -> mutual reachability distance
/// -> MST (Prim, O(n^2) on the implicit complete graph) -> single-linkage
/// dendrogram -> condensed tree (min_cluster_size) -> excess-of-mass cluster
/// selection. Deterministic. With a `pool` the per-row core distances run
/// in parallel (each row's is independent); everything else is serial, and
/// the result is bit-identical to a null-pool run. Must not be called from
/// a task of `pool`. A NaN or infinite coordinate is InvalidArgument.
[[nodiscard]] Result<HdbscanResult> Hdbscan(const vecmath::Matrix& data,
                                            const HdbscanOptions& options,
                                            ThreadPool* pool = nullptr);

/// Medoid (member minimizing total intra-cluster distance) of each cluster;
/// returns one row index per cluster, aligned with result.clusters. HDBSCAN
/// has no native cluster centers, so the paper computes medoids manually as
/// cluster representatives (§4.3) — this is that step.
std::vector<size_t> ComputeMedoids(const vecmath::Matrix& data,
                                   const HdbscanResult& result);

/// Hdbscan's stages, exposed for tests that check them against a reference.
namespace internal {

/// One edge of the mutual-reachability MST, in the order Prim added it.
struct MstEdge {
  double weight;
  uint32_t a;  ///< The tree point the edge leaves from.
  uint32_t b;  ///< The point it adds to the tree.
};

/// Distance from every row to its k-th nearest other row (Euclidean), bit
/// for bit the k-th smallest scalar-reference distance of a full scan. Rows
/// are sorted by first coordinate and each sweeps outward from its place,
/// stopping once the first-coordinate gap alone, less a rounding margin,
/// exceeds its k-th distance so far. Requires finite coordinates.
std::vector<double> CoreDistances(const vecmath::Matrix& data, size_t k,
                                  ThreadPool* pool);

/// Prim's MST from row 0 over the implicit complete graph of mutual
/// reachability distances max(core_a, core_b, d(a, b)). Each step adds the
/// closest point outside the tree; ties go to the lowest point id.
std::vector<MstEdge> MutualReachabilityMst(const vecmath::Matrix& data,
                                           const std::vector<double>& core);

/// The flat clustering of `n` points from their MST: single linkage,
/// condensed tree, excess-of-mass selection.
HdbscanResult ClustersFromMst(std::vector<MstEdge> edges, size_t n,
                              size_t min_cluster_size);

}  // namespace internal

}  // namespace mira::cluster

#endif  // MIRA_CLUSTER_HDBSCAN_H_
