#ifndef MIRA_DIMRED_UMAP_H_
#define MIRA_DIMRED_UMAP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/threadpool.h"
#include "vecmath/matrix.h"

namespace mira::dimred {

/// UMAP (McInnes, Healy & Melville [32]): non-linear dimensionality reduction
/// that preserves both local neighborhoods and (better than t-SNE) global
/// structure — the reducer CTS applies to cell embeddings before HDBSCAN
/// clustering (§4.3).
///
/// Pipeline (matching umap-learn):
///   1. exact kNN graph (umap-learn too computes exact neighbours for small
///      inputs), from one scan over the distinct rows of the input;
///   2. per-point smooth kernel calibration (rho_i = nearest distance, sigma_i
///      solved by bisection so the smoothed neighborhood has log2(k) mass);
///   3. fuzzy simplicial set symmetrization: w = w_ij + w_ji - w_ij * w_ji;
///   4. a/b curve-fit from (min_dist, spread);
///   5. PCA initialization;
///   6. SGD over the fuzzy set with negative sampling on the cross-entropy
///      objective, moving one layout point per distinct matrix row
///      (umap-learn's `unique=True` also embeds duplicate rows once). Each
///      epoch updates fixed blocks of layout points in parallel: a block
///      moves only its own points and reads the others as the epoch began.
struct UmapOptions {
  size_t target_dim = 5;
  size_t n_neighbors = 15;
  float min_dist = 0.1f;
  float spread = 1.0f;
  size_t n_epochs = 200;
  float learning_rate = 1.0f;
  size_t negative_sample_rate = 5;
  uint64_t seed = 31;
};

struct UmapModel {
  /// The n x target_dim layout of the training rows.
  vecmath::Matrix embedding;
  /// Fitted attraction-curve parameters.
  float a = 0.f;
  float b = 0.f;
};

/// Reduces the rows of `data` (a matrix, or a store's rows read once per
/// point). Requires data.rows() >= 4 and target_dim <= data.cols().
///
/// The kNN graph, the fuzzy weights and the PCA initialization are per
/// point, but the points that read one matrix row share one layout point
/// in the SGD: edges between two of them are dropped, and their output rows
/// are bit-equal. A plain matrix reads each row once, so every row is its
/// own point, equal rows included.
///
/// With a `pool`, the kNN scan and each SGD epoch's blocks run on the pool,
/// and the PCA initialization and a/b fit on a second thread beside the
/// scan. No step's result depends on the order of execution: the SGD blocks
/// are fixed, not sized by the pool, and each draws from its own RNG stream.
/// So the layout is bit-identical to a null-pool run on any pool. Must not
/// be called from a task of `pool`.
[[nodiscard]] Result<UmapModel> FitUmap(const vecmath::RowsView& data,
                                        const UmapOptions& options,
                                        ThreadPool* pool = nullptr);

/// Least-squares fit of a, b in phi(x) = 1 / (1 + a x^(2b)) to the target
/// membership curve defined by (min_dist, spread). Exposed for tests.
void FitAbParams(float min_dist, float spread, float* a, float* b);

/// FitUmap's stages, exposed for tests.
namespace internal {

/// Each point's k nearest other points: ids[i * k + j] is point i's j-th
/// nearest by (squared L2, point id), and sq_dists[i * k + j] its
/// ScalarSquaredL2 distance. So a point's copies come first, at distance 0.
struct KnnGraph {
  size_t k = 0;
  std::vector<uint32_t> ids;
  std::vector<float> sq_dists;
};

/// The exact kNN graph of `data`, equal to a per-point brute force. It scans
/// the matrix rows the points read, each once per row instead of once per
/// point (a plain matrix reads every row once), in blocks on `pool`; the
/// result does not depend on the pool. Requires k < data.rows().
KnnGraph ExactKnn(const vecmath::RowsView& data, size_t k, ThreadPool* pool);

/// Each point's membership strength towards each of its k neighbours,
/// beside the graph: entry i * k + j belongs to knn.ids[i * k + j].
std::vector<float> MembershipStrengths(const KnnGraph& knn);

/// The symmetrized fuzzy set over layout points, one entry list per head.
/// Every pair of points either of which lists the other has weight
/// w = u + v - u * v, from the two directed strengths (v = 0 when the other
/// point does not list this one back). A pair of weight 0, or between two
/// points with one head, is dropped. Each other pair gives one entry at each
/// of its two heads, pointing to the other, and exactly one of the two, the
/// one at the head of the pair's lower point, draws the negative samples.
struct FuzzySet {
  /// Head h's entries are [offsets[h], offsets[h + 1]); size n + 1. A point
  /// that is not a head has none.
  std::vector<uint32_t> offsets;
  /// Per entry: the other head, the pair's weight, and 1 when this entry
  /// draws the pair's negatives.
  std::vector<uint32_t> to;
  std::vector<float> weight;
  std::vector<uint8_t> draws_negatives;
};

/// Builds the fuzzy set of `knn` with `strengths` from MembershipStrengths,
/// where point i moves as layout point head[i] (head[head[i]] == head[i]).
FuzzySet BuildFuzzySet(const KnnGraph& knn, const std::vector<float>& strengths,
                       const std::vector<uint32_t>& head);

}  // namespace internal

}  // namespace mira::dimred

#endif  // MIRA_DIMRED_UMAP_H_
