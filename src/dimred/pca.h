#ifndef MIRA_DIMRED_PCA_H_
#define MIRA_DIMRED_PCA_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "vecmath/matrix.h"

namespace mira::dimred {

/// Principal component analysis via power iteration with deflation on the
/// covariance matrix. Used as UMAP's deterministic initialization and as a
/// standalone (linear) reducer for ablation benches.
struct PcaOptions {
  size_t target_dim = 5;
  size_t power_iterations = 60;
  uint64_t seed = 97;
};

struct PcaModel {
  /// Per-feature mean subtracted before projection.
  vecmath::Vec mean;
  /// target_dim x input_dim row-major component matrix (orthonormal rows).
  vecmath::Matrix components;
  /// Eigenvalue estimate per component (descending).
  std::vector<double> explained_variance;

  /// Projects one vector into the principal subspace.
  vecmath::Vec Transform(const vecmath::Vec& input) const;
  /// Projects all rows.
  vecmath::Matrix TransformAll(const vecmath::RowsView& input) const;
};

/// Fits PCA on the rows of `data`. target_dim must be <= input dim and
/// data must have >= 2 rows.
[[nodiscard]] Result<PcaModel> FitPca(const vecmath::RowsView& data, const PcaOptions& options);

}  // namespace mira::dimred

#endif  // MIRA_DIMRED_PCA_H_
