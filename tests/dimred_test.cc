// Unit + property tests for src/dimred: PCA and UMAP.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/threadpool.h"
#include "dimred/pca.h"
#include "dimred/umap.h"
#include "vecmath/vector_ops.h"

namespace mira::dimred {
namespace {

using vecmath::Matrix;
using vecmath::Vec;

// Data stretched along one dominant axis plus small isotropic noise.
Matrix MakeAnisotropic(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Vec axis(dim);
  for (auto& x : axis) x = static_cast<float>(rng.NextGaussian());
  vecmath::NormalizeInPlace(&axis);
  Matrix data(n, dim);
  for (size_t i = 0; i < n; ++i) {
    float along = static_cast<float>(rng.NextGaussian() * 10.0);
    for (size_t j = 0; j < dim; ++j) {
      data.At(i, j) = along * axis[j] + static_cast<float>(rng.NextGaussian() * 0.5);
    }
  }
  return data;
}

Matrix MakeBlobs(size_t blobs, size_t per_blob, size_t dim, uint64_t seed,
                 std::vector<int32_t>* truth = nullptr) {
  Rng rng(seed);
  Matrix data(blobs * per_blob, dim);
  if (truth) truth->resize(blobs * per_blob);
  for (size_t b = 0; b < blobs; ++b) {
    Vec center(dim);
    for (auto& x : center) x = static_cast<float>(rng.NextGaussian() * 15.0);
    for (size_t i = 0; i < per_blob; ++i) {
      size_t row = b * per_blob + i;
      for (size_t j = 0; j < dim; ++j) {
        data.At(row, j) = center[j] + static_cast<float>(rng.NextGaussian() * 0.6);
      }
      if (truth) (*truth)[row] = static_cast<int32_t>(b);
    }
  }
  return data;
}

// ---------- PCA ----------

TEST(PcaTest, RejectsBadArguments) {
  Matrix data = MakeAnisotropic(50, 8, 1);
  PcaOptions options;
  options.target_dim = 0;
  EXPECT_TRUE(FitPca(data, options).status().IsInvalidArgument());
  options.target_dim = 9;  // > input dim
  EXPECT_TRUE(FitPca(data, options).status().IsInvalidArgument());
  Matrix single(1, 8);
  options.target_dim = 2;
  EXPECT_TRUE(FitPca(single, options).status().IsInvalidArgument());
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  Matrix data = MakeAnisotropic(300, 12, 2);
  PcaOptions options;
  options.target_dim = 4;
  auto model = FitPca(data, options).MoveValue();
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      float dot = vecmath::Dot(model.components.Row(a), model.components.Row(b),
                               12);
      EXPECT_NEAR(dot, a == b ? 1.f : 0.f, 1e-3);
    }
  }
}

TEST(PcaTest, FirstComponentCapturesDominantAxis) {
  Rng rng(3);
  Vec axis(16);
  for (auto& x : axis) x = static_cast<float>(rng.NextGaussian());
  vecmath::NormalizeInPlace(&axis);
  Matrix data(400, 16);
  for (size_t i = 0; i < 400; ++i) {
    float along = static_cast<float>(rng.NextGaussian() * 10.0);
    for (size_t j = 0; j < 16; ++j) {
      data.At(i, j) = along * axis[j] + static_cast<float>(rng.NextGaussian() * 0.2);
    }
  }
  PcaOptions options;
  options.target_dim = 2;
  auto model = FitPca(data, options).MoveValue();
  float align = std::fabs(vecmath::Dot(model.components.Row(0), axis.data(), 16));
  EXPECT_GT(align, 0.98f);
}

TEST(PcaTest, ExplainedVarianceDescending) {
  Matrix data = MakeAnisotropic(300, 10, 4);
  PcaOptions options;
  options.target_dim = 5;
  auto model = FitPca(data, options).MoveValue();
  for (size_t c = 1; c < 5; ++c) {
    EXPECT_GE(model.explained_variance[c - 1] + 1e-6,
              model.explained_variance[c]);
  }
}

TEST(PcaTest, TransformPreservesRowCount) {
  Matrix data = MakeAnisotropic(100, 8, 5);
  PcaOptions options;
  options.target_dim = 3;
  auto model = FitPca(data, options).MoveValue();
  Matrix reduced = model.TransformAll(data);
  EXPECT_EQ(reduced.rows(), 100u);
  EXPECT_EQ(reduced.cols(), 3u);
}

TEST(PcaTest, ProjectionCentersData) {
  Matrix data = MakeAnisotropic(200, 8, 6);
  PcaOptions options;
  options.target_dim = 2;
  auto model = FitPca(data, options).MoveValue();
  Matrix reduced = model.TransformAll(data);
  for (size_t c = 0; c < 2; ++c) {
    double mean = 0;
    for (size_t i = 0; i < reduced.rows(); ++i) mean += reduced.At(i, c);
    mean /= reduced.rows();
    EXPECT_NEAR(mean, 0.0, 0.3);
  }
}

// ---------- UMAP ----------

TEST(UmapTest, RejectsBadArguments) {
  Matrix tiny(2, 8);
  UmapOptions options;
  EXPECT_TRUE(FitUmap(tiny, options).status().IsInvalidArgument());
  Matrix data = MakeBlobs(2, 20, 8, 7);
  options.target_dim = 9;
  EXPECT_TRUE(FitUmap(data, options).status().IsInvalidArgument());
}

TEST(UmapTest, AbCurveFitMatchesKnownValues) {
  // umap-learn's fit for min_dist=0.1, spread=1.0 is a~1.577, b~0.895.
  float a, b;
  FitAbParams(0.1f, 1.0f, &a, &b);
  EXPECT_NEAR(a, 1.577f, 0.25f);
  EXPECT_NEAR(b, 0.895f, 0.12f);
}

TEST(UmapTest, AbCurveApproximatesTarget) {
  float a, b;
  FitAbParams(0.1f, 1.0f, &a, &b);
  // Mean squared error against the target curve must be small.
  double mse = 0;
  int samples = 100;
  for (int i = 1; i <= samples; ++i) {
    float x = 3.0f * i / samples;
    float psi = x <= 0.1f ? 1.0f : std::exp(-(x - 0.1f) / 1.0f);
    float phi = 1.0f / (1.0f + a * std::pow(x, 2.f * b));
    mse += (psi - phi) * (psi - phi);
  }
  EXPECT_LT(mse / samples, 0.005);
}

TEST(UmapTest, OutputShape) {
  Matrix data = MakeBlobs(3, 30, 16, 8);
  UmapOptions options;
  options.target_dim = 3;
  options.n_epochs = 50;
  auto model = FitUmap(data, options).MoveValue();
  EXPECT_EQ(model.embedding.rows(), 90u);
  EXPECT_EQ(model.embedding.cols(), 3u);
  for (float x : model.embedding.data()) EXPECT_TRUE(std::isfinite(x));
}

TEST(UmapTest, SeparatedBlobsStaySeparatedInLowDim) {
  std::vector<int32_t> truth;
  Matrix data = MakeBlobs(3, 40, 24, 9, &truth);
  UmapOptions options;
  options.target_dim = 2;
  options.n_epochs = 120;
  auto model = FitUmap(data, options).MoveValue();

  // Mean intra-blob distance must be far below mean inter-blob distance.
  double intra = 0, inter = 0;
  size_t intra_n = 0, inter_n = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = i + 1; j < data.rows(); ++j) {
      double d = std::sqrt(static_cast<double>(vecmath::SquaredL2(
          model.embedding.Row(i), model.embedding.Row(j), 2)));
      if (truth[i] == truth[j]) {
        intra += d;
        ++intra_n;
      } else {
        inter += d;
        ++inter_n;
      }
    }
  }
  intra /= intra_n;
  inter /= inter_n;
  EXPECT_GT(inter, intra * 1.5);
}

TEST(UmapTest, NeighborhoodPreservation) {
  std::vector<int32_t> truth;
  Matrix data = MakeBlobs(4, 30, 20, 10, &truth);
  UmapOptions options;
  options.target_dim = 2;
  options.n_epochs = 120;
  auto model = FitUmap(data, options).MoveValue();

  // For each point, its nearest neighbor in the embedding should usually be
  // from the same blob.
  size_t agree = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    size_t best = i == 0 ? 1 : 0;
    float best_d = 1e30f;
    for (size_t j = 0; j < data.rows(); ++j) {
      if (j == i) continue;
      float d = vecmath::SquaredL2(model.embedding.Row(i),
                                   model.embedding.Row(j), 2);
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    agree += truth[i] == truth[best];
  }
  EXPECT_GT(static_cast<double>(agree) / data.rows(), 0.9);
}

TEST(UmapTest, DeterministicGivenSeed) {
  Matrix data = MakeBlobs(2, 25, 12, 11);
  UmapOptions options;
  options.n_epochs = 40;
  options.target_dim = 2;
  auto a = FitUmap(data, options).MoveValue();
  auto b = FitUmap(data, options).MoveValue();
  EXPECT_EQ(a.embedding.data(), b.embedding.data());
}

TEST(UmapTest, PooledFitMatchesInline) {
  // The pool runs the kNN queries and overlaps PCA with the graph build;
  // the layout must not change by a bit.
  Matrix data = MakeBlobs(4, 60, 12, 13);
  UmapOptions options;
  options.n_epochs = 40;
  options.target_dim = 3;
  ThreadPool pool(4);
  auto inline_fit = FitUmap(data, options).MoveValue();
  auto pooled_fit = FitUmap(data, options, &pool).MoveValue();
  EXPECT_EQ(pooled_fit.embedding.data(), inline_fit.embedding.data());
  EXPECT_EQ(pooled_fit.a, inline_fit.a);
  EXPECT_EQ(pooled_fit.b, inline_fit.b);
}

class UmapDimSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(UmapDimSweep, BlobSeparationAcrossTargetDims) {
  std::vector<int32_t> truth;
  Matrix data = MakeBlobs(3, 30, 16, 12, &truth);
  UmapOptions options;
  options.target_dim = GetParam();
  options.n_epochs = 80;
  auto model = FitUmap(data, options).MoveValue();
  double intra = 0, inter = 0;
  size_t intra_n = 0, inter_n = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = i + 1; j < data.rows(); ++j) {
      double d = vecmath::SquaredL2(model.embedding.Row(i),
                                    model.embedding.Row(j), GetParam());
      if (truth[i] == truth[j]) {
        intra += d;
        ++intra_n;
      } else {
        inter += d;
        ++inter_n;
      }
    }
  }
  EXPECT_GT(inter / inter_n, intra / intra_n);
}

INSTANTIATE_TEST_SUITE_P(TargetDims, UmapDimSweep, ::testing::Values(2, 3, 5, 8));

}  // namespace
}  // namespace mira::dimred
