// Unit tests for src/vecmath: vector ops, metrics, top-k selection, matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "vecmath/distance.h"
#include "vecmath/matrix.h"
#include "vecmath/top_k.h"
#include "vecmath/vector_ops.h"

namespace mira::vecmath {
namespace {

TEST(VectorOpsTest, DotBasic) {
  Vec a = {1, 2, 3};
  Vec b = {4, 5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b), 32.f);
}

TEST(VectorOpsTest, DotHandlesOddLengths) {
  // Exercise the 4-wide unrolled loop remainder handling.
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 9u, 16u, 17u}) {
    Vec a(n, 1.f), b(n, 2.f);
    EXPECT_FLOAT_EQ(Dot(a, b), 2.f * n);
  }
}

TEST(VectorOpsTest, SquaredL2) {
  Vec a = {0, 0};
  Vec b = {3, 4};
  EXPECT_FLOAT_EQ(SquaredL2(a, b), 25.f);
}

TEST(VectorOpsTest, NormAndNormalize) {
  Vec a = {3, 4};
  EXPECT_FLOAT_EQ(Norm(a), 5.f);
  NormalizeInPlace(&a);
  EXPECT_NEAR(Norm(a), 1.f, 1e-6);
  EXPECT_NEAR(a[0], 0.6f, 1e-6);
}

TEST(VectorOpsTest, NormalizeZeroVectorIsNoop) {
  Vec z(4, 0.f);
  NormalizeInPlace(&z);
  for (float x : z) EXPECT_EQ(x, 0.f);
}

TEST(VectorOpsTest, NormalizedReturnsCopy) {
  Vec a = {2, 0};
  Vec n = Normalized(a);
  EXPECT_FLOAT_EQ(a[0], 2.f);  // original untouched
  EXPECT_FLOAT_EQ(n[0], 1.f);
}

TEST(VectorOpsTest, AddAxpyScale) {
  Vec a = {1, 1};
  AddInPlace(&a, Vec{2, 3});
  EXPECT_FLOAT_EQ(a[0], 3.f);
  EXPECT_FLOAT_EQ(a[1], 4.f);
  AxpyInPlace(&a, Vec{1, 1}, 2.f);
  EXPECT_FLOAT_EQ(a[0], 5.f);
  ScaleInPlace(&a, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 2.5f);
}

TEST(VectorOpsTest, CosineSimilarityRange) {
  Vec a = {1, 0};
  Vec b = {0, 1};
  Vec c = {-1, 0};
  EXPECT_NEAR(CosineSimilarity(a, a), 1.f, 1e-6);
  EXPECT_NEAR(CosineSimilarity(a, b), 0.f, 1e-6);
  EXPECT_NEAR(CosineSimilarity(a, c), -1.f, 1e-6);
}

TEST(VectorOpsTest, CosineOfZeroVectorIsZero) {
  Vec a = {1, 2};
  Vec z = {0, 0};
  EXPECT_EQ(CosineSimilarity(a, z), 0.f);
}

// Property: cosine is scale-invariant.
TEST(VectorOpsTest, CosineScaleInvariant) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Vec a(16), b(16);
    for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
    for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
    float base = CosineSimilarity(a, b);
    Vec a2 = a;
    ScaleInPlace(&a2, 7.5f);
    EXPECT_NEAR(CosineSimilarity(a2, b), base, 1e-4);
  }
}

// ---------- distance ----------

TEST(DistanceTest, MetricNames) {
  EXPECT_EQ(MetricToString(Metric::kCosine), "cosine");
  EXPECT_EQ(MetricToString(Metric::kDot), "dot");
  EXPECT_EQ(MetricToString(Metric::kL2), "l2");
}

TEST(DistanceTest, DistanceSimilarityConsistency) {
  Rng rng(6);
  Vec a(8), b(8);
  for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
  for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
  for (Metric m : {Metric::kCosine, Metric::kDot, Metric::kL2}) {
    float d = MetricDistance(m, a, b);
    float s = MetricSimilarity(m, a, b);
    EXPECT_NEAR(DistanceToSimilarity(m, d), s, 1e-5);
  }
}

TEST(DistanceTest, LowerDistanceMeansHigherSimilarity) {
  Vec q = {1, 0, 0};
  Vec near = {0.9f, 0.1f, 0};
  Vec far = {0, 1, 0};
  for (Metric m : {Metric::kCosine, Metric::kDot, Metric::kL2}) {
    EXPECT_LT(MetricDistance(m, q, near), MetricDistance(m, q, far));
    EXPECT_GT(MetricSimilarity(m, q, near), MetricSimilarity(m, q, far));
  }
}

// ---------- TopK ----------

TEST(TopKTest, KeepsBestK) {
  TopK top(3);
  for (uint64_t i = 0; i < 10; ++i) {
    top.Push(i, static_cast<float>(i));
  }
  auto hits = top.Take();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 9u);
  EXPECT_EQ(hits[1].id, 8u);
  EXPECT_EQ(hits[2].id, 7u);
}

TEST(TopKTest, FewerThanKItems) {
  TopK top(5);
  top.Push(1, 0.5f);
  top.Push(2, 0.7f);
  auto hits = top.Take();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 2u);
}

TEST(TopKTest, ZeroKIsEmpty) {
  TopK top(0);
  top.Push(1, 1.f);
  EXPECT_TRUE(top.Take().empty());
}

TEST(TopKTest, TieBreakByLowerId) {
  // Equal scores pushed highest id first: only the id tie-break lets 3
  // evict 9 from the full collector, and it orders the kept pair.
  TopK top(2);
  top.Push(9, 1.f);
  top.Push(5, 1.f);
  top.Push(3, 1.f);
  auto hits = top.Take();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 3u);
  EXPECT_EQ(hits[1].id, 5u);
}

TEST(TopKTest, MatchesFullSortOnRandomData) {
  Rng rng(77);
  std::vector<ScoredId> all;
  TopK top(10);
  for (uint64_t i = 0; i < 500; ++i) {
    float score = rng.NextFloat();
    all.push_back({i, score});
    top.Push(i, score);
  }
  std::sort(all.begin(), all.end(), RanksBefore);
  all.resize(10);
  auto hits = top.Take();
  ASSERT_EQ(hits.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(hits[i].id, all[i].id);
    EXPECT_EQ(hits[i].score, all[i].score);
  }
}

TEST(TopKTest, SortTopKMatchesTake) {
  // Scores come from a small set with both zeros, so exact ties (and ties
  // between -0.0 and +0.0) are common and only the id decides their order.
  const float kScores[] = {-0.5f, -0.0f, 0.0f, 0.25f, 0.25f, 0.75f};
  // The order written out here, independent of RanksBefore.
  auto before = [](const ScoredId& a, const ScoredId& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  };
  Rng rng(2024);
  for (size_t n : {0u, 1u, 5u, 150u, 1500u}) {
    std::vector<ScoredId> items;
    for (size_t i = 0; i < n; ++i) {
      items.push_back({rng.NextBounded(1u << 20) * n + i,
                       kScores[rng.NextBounded(std::size(kScores))]});
    }
    std::vector<ScoredId> sorted = items;
    std::sort(sorted.begin(), sorted.end(), before);
    for (size_t k : {size_t{0}, size_t{1}, n / 2, n == 0 ? 0 : n - 1, n,
                     n + 7}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k);
      TopK top(k);
      for (const ScoredId& item : items) top.Push(item.id, item.score);
      const std::vector<ScoredId> taken = top.Take();
      std::vector<ScoredId> selected = items;
      SortTopK(&selected, k);
      ASSERT_EQ(selected.size(), std::min(k, n));
      ASSERT_EQ(taken.size(), selected.size());
      for (size_t i = 0; i < selected.size(); ++i) {
        EXPECT_EQ(selected[i].id, sorted[i].id);
        EXPECT_EQ(std::bit_cast<uint32_t>(selected[i].score),
                  std::bit_cast<uint32_t>(sorted[i].score));
        EXPECT_EQ(taken[i].id, selected[i].id);
        EXPECT_EQ(std::bit_cast<uint32_t>(taken[i].score),
                  std::bit_cast<uint32_t>(selected[i].score));
      }
    }
  }
}

TEST(TopKTest, WorstScoreTracksBoundary) {
  TopK top(2);
  top.Push(1, 1.0f);
  top.Push(2, 2.0f);
  EXPECT_TRUE(top.full());
  EXPECT_FLOAT_EQ(top.WorstScore(), 1.0f);
  top.Push(3, 3.0f);  // evicts score 1
  EXPECT_FLOAT_EQ(top.WorstScore(), 2.0f);
}

// ---------- Matrix ----------

TEST(MatrixTest, ConstructAndAccess) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  m.At(1, 2) = 5.f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.f);
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.f);
}

TEST(MatrixTest, AppendRowGrowsAndSetsCols) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  m.AppendRow({1, 2, 3});
  m.AppendRow({4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.At(1, 0), 4.f);
}

TEST(MatrixTest, RowsStartOnACacheLine) {
  auto aligned = [](const Matrix& m) {
    return reinterpret_cast<uintptr_t>(m.Row(0)) % 64 == 0;
  };
  EXPECT_TRUE(aligned(Matrix(3, 5)));
  Matrix reserved;
  reserved.Reserve(40);
  Matrix grown;
  for (size_t r = 0; r < 100; ++r) {
    reserved.AppendRow(Vec(7, static_cast<float>(r)));
    grown.AppendRow(Vec(7, static_cast<float>(r)));
    ASSERT_TRUE(aligned(reserved)) << "row " << r;
    ASSERT_TRUE(aligned(grown)) << "row " << r;
  }
  EXPECT_FLOAT_EQ(grown.At(99, 6), 99.f);
  EXPECT_FLOAT_EQ(reserved.At(42, 0), 42.f);
}

TEST(MatrixTest, RowVecAndSetRowRoundTrip) {
  Matrix m(2, 2);
  m.SetRow(0, {7, 8});
  Vec v = m.RowVec(0);
  EXPECT_EQ(v, (Vec{7, 8}));
}

}  // namespace
}  // namespace mira::vecmath
