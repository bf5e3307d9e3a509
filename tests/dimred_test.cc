// Unit + property tests for src/dimred: PCA and UMAP.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "dimred/pca.h"
#include "dimred/umap.h"
#include "vecmath/simd.h"
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

TEST(UmapTest, CopiesShareOneLayoutPoint) {
  // Points read matrix rows through an index, as a corpus's cells read its
  // distinct vectors: row 0 ten times, rows 1-4 twice, every other row once,
  // in a shuffled order.
  Matrix rows = MakeBlobs(4, 20, 10, 17);
  std::vector<uint32_t> index;
  for (uint32_t r = 0; r < rows.rows(); ++r) index.push_back(r);
  for (int copy = 1; copy < 10; ++copy) index.push_back(0);
  for (uint32_t r = 1; r <= 4; ++r) index.push_back(r);
  Rng rng(18);
  rng.Shuffle(&index);
  const vecmath::RowsView points(rows, index);
  UmapOptions options;
  options.n_epochs = 60;
  options.target_dim = 3;
  ThreadPool pool(3);
  auto inline_fit = FitUmap(points, options).MoveValue();
  auto pooled_fit = FitUmap(points, options, &pool).MoveValue();
  EXPECT_EQ(pooled_fit.embedding.data(), inline_fit.embedding.data());

  const Matrix& layout = inline_fit.embedding;
  ASSERT_EQ(layout.rows(), index.size());
  std::vector<size_t> first_point(rows.rows(), index.size());
  for (size_t i = 0; i < index.size(); ++i) {
    size_t& first = first_point[index[i]];
    if (first == index.size()) {
      first = i;
      continue;
    }
    for (size_t c = 0; c < layout.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<uint32_t>(layout.At(i, c)),
                std::bit_cast<uint32_t>(layout.At(first, c)))
          << "point " << i << " (row " << index[i] << "), column " << c;
    }
  }
}

// FNV-1a over the bits of a fit: the layout, then a and b.
uint64_t FitFingerprint(const UmapModel& model) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint32_t value) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (float x : model.embedding.data()) mix(std::bit_cast<uint32_t>(x));
  mix(std::bit_cast<uint32_t>(model.a));
  mix(std::bit_cast<uint32_t>(model.b));
  return hash;
}

TEST(UmapTest, PlainMatrixLayoutMatchesParentFingerprint) {
  // A plain matrix makes every row its own layout point, two equal rows
  // included, so its fit must not move by a bit from the one recorded before
  // copies shared a point. The fit runs on scalar-reference kernels, so one
  // constant holds on every SIMD tier.
  Matrix data = MakeBlobs(3, 40, 12, 19);
  std::copy(data.Row(0), data.Row(0) + data.cols(), data.Row(1));
  UmapOptions options;
  options.n_epochs = 60;
  options.target_dim = 3;
  EXPECT_EQ(FitFingerprint(FitUmap(data, options).MoveValue()),
            3280541228545380192ULL);
}

// Per point, its k nearest other points by (ScalarSquaredL2, point id).
internal::KnnGraph BruteForceKnn(const vecmath::RowsView& data, size_t k) {
  internal::KnnGraph graph;
  graph.k = k;
  for (size_t i = 0; i < data.rows(); ++i) {
    std::vector<std::pair<float, uint32_t>> all;
    for (size_t j = 0; j < data.rows(); ++j) {
      if (j == i) continue;
      all.emplace_back(
          vecmath::ScalarSquaredL2(data.Row(i), data.Row(j), data.cols()),
          static_cast<uint32_t>(j));
    }
    std::sort(all.begin(), all.end());
    for (size_t j = 0; j < k; ++j) {
      graph.ids.push_back(all[j].second);
      graph.sq_dists.push_back(all[j].first);
    }
  }
  return graph;
}

void ExpectSameGraph(const internal::KnnGraph& got,
                     const internal::KnnGraph& want) {
  ASSERT_EQ(got.k, want.k);
  ASSERT_EQ(got.ids, want.ids);
  ASSERT_EQ(got.sq_dists.size(), want.sq_dists.size());
  for (size_t i = 0; i < got.sq_dists.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got.sq_dists[i]),
              std::bit_cast<uint32_t>(want.sq_dists[i]))
        << "entry " << i;
  }
}

TEST(UmapTest, ExactKnnMatchesPerCellBruteForce) {
  // Matrix rows: the origin, six unit vectors all at squared distance 1 from
  // it, a row with 10 copies, and 40 rows on a small integer grid (many
  // equal distances). Points read rows through an index, as a corpus's cells
  // read its distinct vectors. The unit vectors' points are numbered in the
  // reverse of their rows, so the origin's nearest points at the boundary
  // distance come from the rows a top-k by row id lets go first.
  constexpr size_t kDim = 7;
  Matrix rows(48, kDim);
  for (size_t u = 1; u <= 6; ++u) rows.At(u, u - 1) = 1.f;
  for (size_t c = 0; c < kDim; ++c) rows.At(7, c) = 3.f;
  Rng rng(29);
  for (size_t r = 8; r < rows.rows(); ++r) {
    for (size_t c = 0; c < kDim; ++c) {
      rows.At(r, c) = static_cast<float>(rng.NextInt(0, 2));
    }
  }
  std::vector<uint32_t> index = {6, 5, 4, 0, 3, 2, 1};
  for (int copy = 0; copy < 10; ++copy) index.push_back(7);
  for (uint32_t r = 8; r < rows.rows(); ++r) {
    index.push_back(r);
    if (r % 3 == 0) index.push_back(static_cast<uint32_t>(8 + rng.NextBounded(r - 7)));
  }
  index.push_back(5);
  const vecmath::RowsView cells(rows, index);
  ThreadPool pool(3);
  for (size_t k : {1u, 3u, 4u, 15u}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    const internal::KnnGraph want = BruteForceKnn(cells, k);
    ExpectSameGraph(internal::ExactKnn(cells, k, nullptr), want);
    ExpectSameGraph(internal::ExactKnn(cells, k, &pool), want);
    // A plain matrix is its own index: every row one point.
    ExpectSameGraph(internal::ExactKnn(rows, k, &pool), BruteForceKnn(rows, k));
  }
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
