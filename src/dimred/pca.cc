#include "dimred/pca.h"

#include <cmath>

#include "common/rng.h"
#include "common/string_util.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira::dimred {

vecmath::Vec PcaModel::Transform(const vecmath::Vec& input) const {
  const size_t out_dim = components.rows();
  const size_t in_dim = components.cols();
  vecmath::Vec centered(in_dim);
  for (size_t j = 0; j < in_dim; ++j) centered[j] = input[j] - mean[j];
  vecmath::Vec out(out_dim);
  for (size_t c = 0; c < out_dim; ++c) {
    // Scalar-reference projection: the reduced vectors feed clustering,
    // which must be bit-reproducible across SIMD tiers (see vecmath/simd.h).
    out[c] = vecmath::ScalarDot(centered.data(), components.Row(c), in_dim);
  }
  return out;
}

vecmath::Matrix PcaModel::TransformAll(const vecmath::RowsView& input) const {
  vecmath::Matrix out(input.rows(), components.rows());
  for (size_t i = 0; i < input.rows(); ++i) {
    out.SetRow(i, Transform(input.RowVec(i)));
  }
  return out;
}

Result<PcaModel> FitPca(const vecmath::RowsView& data, const PcaOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  if (n < 2) return Status::InvalidArgument("pca: need at least 2 rows");
  if (options.target_dim == 0 || options.target_dim > d) {
    return Status::InvalidArgument(
        StrFormat("pca: target_dim %zu out of range (input dim %zu)",
                  options.target_dim, d));
  }

  PcaModel model;
  model.mean.assign(d, 0.f);
  for (size_t i = 0; i < n; ++i) {
    vecmath::AddInPlace(model.mean.data(), data.Row(i), d);
  }
  vecmath::ScaleInPlace(model.mean.data(), 1.0f / static_cast<float>(n), d);

  // Covariance (d x d). d is modest (<= 768) so this is affordable and keeps
  // the power iteration independent of n.
  std::vector<double> cov(d * d, 0.0);
  std::vector<double> centered(d);
  for (size_t i = 0; i < n; ++i) {
    const float* row = data.Row(i);
    for (size_t j = 0; j < d; ++j) centered[j] = row[j] - model.mean[j];
    for (size_t a = 0; a < d; ++a) {
      double ca = centered[a];
      if (ca == 0.0) continue;
      double* cov_row = cov.data() + a * d;
      for (size_t b = a; b < d; ++b) cov_row[b] += ca * centered[b];
    }
  }
  double inv_n = 1.0 / static_cast<double>(n - 1);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a; b < d; ++b) {
      cov[a * d + b] *= inv_n;
      cov[b * d + a] = cov[a * d + b];
    }
  }

  Rng rng(options.seed);
  model.components = vecmath::Matrix(options.target_dim, d);
  model.explained_variance.resize(options.target_dim);
  std::vector<double> v(d), next(d);

  for (size_t c = 0; c < options.target_dim; ++c) {
    for (auto& x : v) x = rng.NextGaussian();
    double eigenvalue = 0.0;
    for (size_t iter = 0; iter < options.power_iterations; ++iter) {
      // next = Cov * v
      for (size_t a = 0; a < d; ++a) {
        double sum = 0.0;
        const double* cov_row = cov.data() + a * d;
        for (size_t b = 0; b < d; ++b) sum += cov_row[b] * v[b];
        next[a] = sum;
      }
      // Orthogonalize against previously-extracted components.
      for (size_t p = 0; p < c; ++p) {
        const float* comp = model.components.Row(p);
        double dot = 0.0;
        for (size_t b = 0; b < d; ++b) dot += next[b] * comp[b];
        for (size_t b = 0; b < d; ++b) next[b] -= dot * comp[b];
      }
      double norm = 0.0;
      for (double x : next) norm += x * x;
      norm = std::sqrt(norm);
      if (norm < 1e-12) {
        // Degenerate direction (rank-deficient data); restart randomly.
        for (auto& x : next) x = rng.NextGaussian();
        norm = 0.0;
        for (double x : next) norm += x * x;
        norm = std::sqrt(norm);
      }
      eigenvalue = norm;
      for (size_t b = 0; b < d; ++b) v[b] = next[b] / norm;
    }
    for (size_t b = 0; b < d; ++b) {
      model.components.At(c, b) = static_cast<float>(v[b]);
    }
    model.explained_variance[c] = eigenvalue;
  }
  return model;
}

}  // namespace mira::dimred
