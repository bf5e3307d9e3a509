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
  /// Smallest subtree that counts as a cluster in the condensed tree, and
  /// the neighbourhood size of the core distances.
  size_t min_cluster_size = 8;
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
/// Pipeline: core distances (min_cluster_size-NN) -> mutual reachability
/// distance -> MST (Prim, O(n^2) on the implicit complete graph) ->
/// single-linkage dendrogram -> condensed tree (min_cluster_size) ->
/// excess-of-mass cluster selection. Row i stands for `copies[i]` identical
/// points (empty: one each): the result is that of the rows repeated, where
/// a row's copies merge (at its core distance) before any other edge of
/// equal weight, and other equal-weight edges link in the order Prim added
/// them. Deterministic. With a `pool` the per-row core distances run in
/// parallel (each row's is independent); everything else is serial, and the
/// result is bit-identical to a null-pool run. Must not be called from a
/// task of `pool`. A NaN or infinite coordinate, or a copy count of 0 or for
/// another number of rows, is InvalidArgument.
[[nodiscard]] Result<HdbscanResult> Hdbscan(
    const vecmath::Matrix& data, const HdbscanOptions& options,
    ThreadPool* pool = nullptr, const std::vector<uint32_t>& copies = {});

/// Medoid (member minimizing its total distance to the cluster's points,
/// each member counted `copies` times; empty means once) of each cluster;
/// returns one row index per cluster, aligned with result.clusters. HDBSCAN
/// has no native cluster centers, so the paper computes medoids manually as
/// cluster representatives (§4.3) — this is that step.
std::vector<size_t> ComputeMedoids(const vecmath::Matrix& data,
                                   const HdbscanResult& result,
                                   const std::vector<uint32_t>& copies = {});

/// Hdbscan's stages, exposed for tests that check them against a reference.
namespace internal {

/// One edge of the mutual-reachability MST, in the order Prim added it.
struct MstEdge {
  double weight;
  uint32_t a;  ///< The tree point the edge leaves from.
  uint32_t b;  ///< The point it adds to the tree.
};

/// Distance from every row to its k-th nearest other point (Euclidean),
/// row i standing for copies[i] points (empty: one each): its other copies
/// count at distance 0 and a neighbour once per copy. Bit for bit the k-th
/// smallest
/// scalar-reference distance of a full scan over the repeated rows. Rows
/// are sorted by first coordinate and each sweeps outward from its place,
/// stopping once the first-coordinate gap alone, less a rounding margin,
/// exceeds its k-th distance so far. Requires finite coordinates.
std::vector<double> CoreDistances(const vecmath::Matrix& data, size_t k,
                                  ThreadPool* pool,
                                  const std::vector<uint32_t>& copies = {});

/// Prim's MST from row 0 over the implicit complete graph of mutual
/// reachability distances max(core_a, core_b, d(a, b)). Each step adds the
/// closest point outside the tree; ties go to the lowest point id.
std::vector<MstEdge> MutualReachabilityMst(const vecmath::Matrix& data,
                                           const std::vector<double>& core);

/// The flat clustering of the MST's `n` points: single linkage, condensed
/// tree, excess-of-mass selection. Point i stands for copies[i] points
/// (empty: one each), which merge at its core distance core[i].
HdbscanResult ClustersFromMst(std::vector<MstEdge> edges, size_t n,
                              size_t min_cluster_size,
                              const std::vector<uint32_t>& copies = {},
                              const std::vector<double>& core = {});

}  // namespace internal

}  // namespace mira::cluster

#endif  // MIRA_CLUSTER_HDBSCAN_H_
