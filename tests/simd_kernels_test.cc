// Parity tests for the SIMD-dispatched vecmath kernels: the active dispatch
// tier must agree with the portable scalar reference on randomized inputs
// across dimensions (including odd tails), zero vectors, and batched scans.
// Also locks the MIRA_FORCE_SCALAR override and the batch/pairwise
// consistency of the scalar tier itself (bitwise, same summation order).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "index/product_quantizer.h"
#include "vecmath/matrix.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira::vecmath {
namespace {

using simd_internal::ActiveKernels;
using simd_internal::KernelsForTier;
using simd_internal::ResolveTier;
using simd_internal::ScalarKernels;

const std::vector<size_t>& TestDims() {
  static const std::vector<size_t> kDims = {1,  2,  3,  4,  5,  6,  7,
                                            8,  9,  10, 11, 12, 13, 14,
                                            15, 16, 17, 64, 192, 768};
  return kDims;
}

Vec RandomVec(Rng* rng, size_t dim) {
  Vec v(dim);
  for (float& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

// SIMD tiers reassociate the summation; tolerance scales with sqrt(dim).
float Tolerance(size_t dim) {
  return 1e-4f * std::max(1.0f,
                          std::sqrt(static_cast<float>(dim)));
}

TEST(SimdKernelsTest, PairwiseParityAcrossDims) {
  const auto& active = ActiveKernels();
  const auto& scalar = ScalarKernels();
  Rng rng(101);
  for (size_t dim : TestDims()) {
    for (int trial = 0; trial < 8; ++trial) {
      Vec a = RandomVec(&rng, dim);
      Vec b = RandomVec(&rng, dim);
      const float tol = Tolerance(dim);
      EXPECT_NEAR(active.dot(a.data(), b.data(), dim),
                  scalar.dot(a.data(), b.data(), dim), tol)
          << "dot dim=" << dim;
      EXPECT_NEAR(active.squared_l2(a.data(), b.data(), dim),
                  scalar.squared_l2(a.data(), b.data(), dim), tol)
          << "squared_l2 dim=" << dim;
      EXPECT_NEAR(active.cosine_similarity(a.data(), b.data(), dim),
                  scalar.cosine_similarity(a.data(), b.data(), dim), 1e-4f)
          << "cosine dim=" << dim;
    }
  }
}

TEST(SimdKernelsTest, AxpyParityAcrossDims) {
  const auto& active = ActiveKernels();
  const auto& scalar = ScalarKernels();
  Rng rng(202);
  for (size_t dim : TestDims()) {
    Vec a = RandomVec(&rng, dim);
    Vec b = RandomVec(&rng, dim);
    Vec a_scalar = a;
    active.axpy(a.data(), b.data(), 0.37f, dim);
    scalar.axpy(a_scalar.data(), b.data(), 0.37f, dim);
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(a[i], a_scalar[i], 1e-5f) << "axpy dim=" << dim << " i=" << i;
    }
  }
}

TEST(SimdKernelsTest, BatchParityAcrossDims) {
  const auto& active = ActiveKernels();
  const auto& scalar = ScalarKernels();
  Rng rng(303);
  for (size_t dim : TestDims()) {
    // Row counts around the 4-row unroll boundary and past the prefetch
    // lookahead window.
    for (size_t rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 33u}) {
      Vec q = RandomVec(&rng, dim);
      Matrix m;
      m.Reserve(rows);
      for (size_t r = 0; r < rows; ++r) m.AppendRow(RandomVec(&rng, dim));
      std::vector<float> out_active(rows, -1.0f);
      std::vector<float> out_scalar(rows, -2.0f);
      const float tol = Tolerance(dim);

      active.dot_batch(q.data(), m.Row(0), rows, dim, out_active.data());
      scalar.dot_batch(q.data(), m.Row(0), rows, dim, out_scalar.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_NEAR(out_active[r], out_scalar[r], tol)
            << "dot_batch dim=" << dim << " rows=" << rows << " r=" << r;
      }

      active.squared_l2_batch(q.data(), m.Row(0), rows, dim,
                              out_active.data());
      scalar.squared_l2_batch(q.data(), m.Row(0), rows, dim,
                              out_scalar.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_NEAR(out_active[r], out_scalar[r], tol)
            << "squared_l2_batch dim=" << dim << " rows=" << rows;
      }
    }
  }
}

TEST(SimdKernelsTest, BatchScoresDoNotDependOnRowPosition) {
  // A row's batch score is the same bits scanned alone, as the last row of a
  // short group, or inside a full group: every tier, both batch kernels.
  Rng rng(505);
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kNeon}) {
    const auto& kernels = KernelsForTier(tier);
    for (size_t dim : {5u, 16u, 61u, 256u}) {
      constexpr size_t kRows = 21;
      Vec q = RandomVec(&rng, dim);
      Matrix m;
      for (size_t r = 0; r < kRows; ++r) m.AppendRow(RandomVec(&rng, dim));
      for (const auto batch : {kernels.dot_batch, kernels.squared_l2_batch}) {
        std::vector<float> alone(kRows);
        for (size_t r = 0; r < kRows; ++r) {
          batch(q.data(), m.Row(r), 1, dim, &alone[r]);
        }
        for (size_t first = 0; first < kRows; ++first) {
          std::vector<float> out(kRows - first);
          batch(q.data(), m.Row(first), kRows - first, dim, out.data());
          for (size_t r = first; r < kRows; ++r) {
            EXPECT_EQ(std::bit_cast<uint32_t>(out[r - first]),
                      std::bit_cast<uint32_t>(alone[r]))
                << SimdTierName(tier) << " dim=" << dim << " row=" << r
                << " first=" << first;
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, ScalarBatchMatchesScalarPairwiseBitwise) {
  // The scalar batch kernels delegate per row to the scalar pairwise
  // kernels, so their results are bitwise identical — this is what keeps
  // MIRA_FORCE_SCALAR=1 rankings equal to the pre-batching seed.
  const auto& scalar = ScalarKernels();
  Rng rng(404);
  for (size_t dim : {7u, 192u}) {
    const size_t rows = 9;
    Vec q = RandomVec(&rng, dim);
    Matrix m;
    for (size_t r = 0; r < rows; ++r) m.AppendRow(RandomVec(&rng, dim));
    std::vector<float> out(rows, 0.0f);
    scalar.dot_batch(q.data(), m.Row(0), rows, dim, out.data());
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r], scalar.dot(q.data(), m.Row(r), dim));
    }
    scalar.squared_l2_batch(q.data(), m.Row(0), rows, dim, out.data());
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r], scalar.squared_l2(q.data(), m.Row(r), dim));
    }
  }
}

TEST(SimdKernelsTest, SquaredL2TileMatchesScalarPairwiseBitwise) {
  // The all-pairs tile is the scalar reference's bits on every tier (CI runs
  // this test plain and under MIRA_FORCE_SCALAR=1): it feeds UMAP's kNN
  // graph, which the clustering reads. Query counts cover the four-query
  // pass and its remainder, dims the lane tails.
  Rng rng(405);
  for (size_t dim : {1u, 3u, 5u, 192u, 193u}) {
    for (size_t queries : {1u, 4u, 7u}) {
      const size_t rows = 11;
      Matrix q;
      Matrix m;
      for (size_t i = 0; i < queries; ++i) q.AppendRow(RandomVec(&rng, dim));
      for (size_t r = 0; r < rows; ++r) m.AppendRow(RandomVec(&rng, dim));
      std::vector<float> out(queries * rows, -1.f);
      ScalarSquaredL2Tile(q.Row(0), queries, m.Row(0), rows, dim, out.data());
      for (size_t i = 0; i < queries; ++i) {
        for (size_t r = 0; r < rows; ++r) {
          EXPECT_EQ(std::bit_cast<uint32_t>(out[i * rows + r]),
                    std::bit_cast<uint32_t>(
                        ScalarSquaredL2(q.Row(i), m.Row(r), dim)))
              << "dim " << dim << ", query " << i << ", row " << r;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, ZeroVectorCosineIsZeroOnBothTiers) {
  const auto& active = ActiveKernels();
  const auto& scalar = ScalarKernels();
  for (size_t dim : {3u, 8u, 192u}) {
    Vec z(dim, 0.0f);
    Vec b(dim, 1.0f);
    EXPECT_EQ(scalar.cosine_similarity(z.data(), b.data(), dim), 0.0f);
    EXPECT_EQ(active.cosine_similarity(z.data(), b.data(), dim), 0.0f);
    EXPECT_EQ(active.cosine_similarity(b.data(), z.data(), dim), 0.0f);
  }
}

TEST(SimdKernelsTest, ForceScalarEnvPinsScalarTier) {
  // ActiveSimdTier() caches its first resolution, so exercise the
  // non-caching ResolveTier() hook directly.
  ASSERT_EQ(setenv("MIRA_FORCE_SCALAR", "1", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveTier(), SimdTier::kScalar);
  ASSERT_EQ(unsetenv("MIRA_FORCE_SCALAR"), 0);

  // "0" and empty do not force scalar.
  ASSERT_EQ(setenv("MIRA_FORCE_SCALAR", "0", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveTier(), ResolveTier());
  ASSERT_EQ(unsetenv("MIRA_FORCE_SCALAR"), 0);
}

TEST(SimdKernelsTest, KernelsForTierFallsBackToScalar) {
  // Requesting a tier the build/CPU cannot provide returns the scalar table;
  // requesting kScalar always returns it.
  EXPECT_EQ(&KernelsForTier(SimdTier::kScalar), &ScalarKernels());
#if defined(__aarch64__)
  EXPECT_EQ(&KernelsForTier(SimdTier::kAvx2), &ScalarKernels());
#else
  EXPECT_EQ(&KernelsForTier(SimdTier::kNeon), &ScalarKernels());
#endif
}

TEST(SimdKernelsTest, PublicOpsRouteThroughDispatch) {
  // The public vector_ops entry points must agree with the active table.
  const auto& active = ActiveKernels();
  Rng rng(505);
  Vec a = RandomVec(&rng, 192);
  Vec b = RandomVec(&rng, 192);
  EXPECT_EQ(Dot(a, b), active.dot(a.data(), b.data(), a.size()));
  EXPECT_EQ(SquaredL2(a, b), active.squared_l2(a.data(), b.data(), a.size()));
  EXPECT_EQ(CosineSimilarity(a, b),
            active.cosine_similarity(a.data(), b.data(), a.size()));

  std::vector<float> out1(4), out2(4);
  Matrix m;
  for (int r = 0; r < 4; ++r) m.AppendRow(RandomVec(&rng, 192));
  DotBatch(a.data(), m.Row(0), 4, 192, out1.data());
  active.dot_batch(a.data(), m.Row(0), 4, 192, out2.data());
  EXPECT_EQ(out1, out2);
}

TEST(SimdKernelsTest, ScalarOpsBypassDispatchBitwise) {
  // The deterministic build-pipeline entry points must be the scalar
  // reference exactly, whatever tier is active.
  const auto& scalar = ScalarKernels();
  Rng rng(606);
  Vec a = RandomVec(&rng, 192);
  Vec b = RandomVec(&rng, 192);
  EXPECT_EQ(ScalarDot(a.data(), b.data(), a.size()),
            scalar.dot(a.data(), b.data(), a.size()));
  EXPECT_EQ(ScalarSquaredL2(a.data(), b.data(), a.size()),
            scalar.squared_l2(a.data(), b.data(), a.size()));

  std::vector<float> out1(5), out2(5);
  Matrix m;
  for (int r = 0; r < 5; ++r) m.AppendRow(RandomVec(&rng, 192));
  ScalarSquaredL2Batch(a.data(), m.Row(0), 5, 192, out1.data());
  scalar.squared_l2_batch(a.data(), m.Row(0), 5, 192, out2.data());
  EXPECT_EQ(out1, out2);
}

TEST(SimdKernelsTest, AdcDistanceBatchMatchesPerCodeAdc) {
  Rng rng(606);
  const size_t dim = 64;
  index::PqOptions options;
  options.num_subquantizers = 8;
  options.train_iterations = 3;
  options.max_training_rows = 512;
  Matrix train;
  train.Reserve(400);
  for (int r = 0; r < 400; ++r) train.AppendRow(RandomVec(&rng, dim));
  auto pq = index::ProductQuantizer::Train(train, options).MoveValue();

  // Code counts around the 4-code unroll boundary and the prefetch window.
  for (size_t num_codes : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 40u}) {
    std::vector<uint8_t> codes(num_codes * pq.code_bytes());
    for (uint8_t& c : codes) {
      c = static_cast<uint8_t>(
          rng.NextBounded(index::ProductQuantizer::kCodebookSize));
    }
    Vec q = RandomVec(&rng, dim);
    std::vector<float> table;
    pq.ComputeDistanceTable(q, &table);
    std::vector<float> batch(num_codes, -1.0f);
    pq.AdcDistanceBatch(table, codes.data(), num_codes, batch.data());
    for (size_t i = 0; i < num_codes; ++i) {
      EXPECT_NEAR(batch[i],
                  pq.AdcDistance(table, codes.data() + i * pq.code_bytes()),
                  1e-4f)
          << "num_codes=" << num_codes << " i=" << i;
    }
  }
}

TEST(SimdKernelsTest, TierNameCoversAllTiers) {
  EXPECT_EQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_FALSE(SimdTierName(ActiveSimdTier()).empty());
}

}  // namespace
}  // namespace mira::vecmath
