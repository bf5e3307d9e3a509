// Cross-cutting property tests: randomized invariants that hold across the
// library's layers — parameterized over seeds (TEST_P) so each suite probes
// several independent instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <set>

#include "cluster/hdbscan.h"
#include "cluster/kmeans.h"
#include "common/rng.h"
#include "embed/encoder.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/product_quantizer.h"
#include "ir/metrics.h"
#include "vecmath/vector_ops.h"

namespace mira {
namespace {

using vecmath::Matrix;
using vecmath::Vec;

Matrix RandomUnitRows(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix data(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      data.At(i, j) = static_cast<float>(rng.NextGaussian());
    }
    vecmath::NormalizeInPlace(data.Row(i), dim);
  }
  return data;
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

// ---- vecmath: exact-arithmetic reference checks on random vectors ----

TEST_P(SeededProperty, DotMatchesNaiveReference) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 1 + rng.NextBounded(97);
    Vec a(n), b(n);
    for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
    for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
    double reference = 0;
    for (size_t i = 0; i < n; ++i) {
      reference += static_cast<double>(a[i]) * b[i];
    }
    EXPECT_NEAR(vecmath::Dot(a, b), reference, 1e-3 * n);
  }
}

TEST_P(SeededProperty, CosineBounded) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Vec a(32), b(32);
    for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
    for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
    float cos = vecmath::CosineSimilarity(a, b);
    EXPECT_GE(cos, -1.0001f);
    EXPECT_LE(cos, 1.0001f);
  }
}

// ---- index: HNSW layer-0 graph is connected (reachability from entry) ----

TEST_P(SeededProperty, HnswLayerZeroReachesEveryNode) {
  const size_t n = 400;
  Matrix data = RandomUnitRows(n, 24, GetParam());
  index::HnswOptions options;
  options.seed = GetParam();
  index::HnswIndex idx(options);
  for (size_t i = 0; i < n; ++i) ASSERT_TRUE(idx.Add(i, data.RowVec(i)).ok());
  ASSERT_TRUE(idx.Build().ok());

  // BFS over layer-0 degrees: searching for each point must find it, which
  // is only possible if it is reachable.
  for (size_t probe = 0; probe < n; probe += 37) {
    auto hits = idx.Search(data.RowVec(probe), {1, 200}).MoveValue();
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].id, probe);
  }
}

// ---- index: flat search returns the true argmax ----

TEST_P(SeededProperty, FlatSearchIsArgmax) {
  const size_t n = 200;
  Matrix data = RandomUnitRows(n, 16, GetParam() ^ 0xF1A7);
  index::FlatIndex idx;
  for (size_t i = 0; i < n; ++i) ASSERT_TRUE(idx.Add(i, data.RowVec(i)).ok());
  ASSERT_TRUE(idx.Build().ok());
  Rng rng(GetParam());
  Vec query = data.RowVec(rng.NextBounded(n));
  auto hits = idx.Search(query, {1, 0}).MoveValue();
  float best = -2.f;
  uint64_t best_id = 0;
  for (size_t i = 0; i < n; ++i) {
    float sim = vecmath::CosineSimilarity(query.data(), data.Row(i), 16);
    if (sim > best) {
      best = sim;
      best_id = i;
    }
  }
  EXPECT_EQ(hits[0].id, best_id);
}

// ---- index: PQ ADC distance is exact when the vector is a centroid tuple ----

TEST_P(SeededProperty, AdcExactOnReconstructedVectors) {
  Matrix data = RandomUnitRows(500, 32, GetParam() ^ 0xADC);
  index::PqOptions options;
  options.num_subquantizers = 8;
  options.seed = GetParam();
  auto pq = index::ProductQuantizer::Train(data, options).MoveValue();
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    Vec original = data.RowVec(rng.NextBounded(500));
    std::vector<uint8_t> codes = pq.Encode(original);
    Vec reconstructed = pq.Decode(codes);
    Vec query = data.RowVec(rng.NextBounded(500));
    auto table = pq.ComputeDistanceTable(query);
    float adc = pq.AdcDistance(table, codes.data());
    float exact = vecmath::SquaredL2(query, reconstructed);
    EXPECT_NEAR(adc, exact, 1e-3);
  }
}

// ---- cluster: k-means inertia never increases with k ----

TEST_P(SeededProperty, KMeansInertiaMonotoneInK) {
  Matrix data = RandomUnitRows(150, 8, GetParam() ^ 0x377);
  double previous = std::numeric_limits<double>::max();
  for (size_t k : {2, 4, 8, 16}) {
    cluster::KMeansOptions options;
    options.num_clusters = k;
    options.seed = GetParam();
    options.max_iterations = 40;
    auto result = cluster::KMeans(data, options).MoveValue();
    EXPECT_LE(result.inertia, previous * 1.05);  // slack for local optima
    previous = result.inertia;
  }
}

// ---- cluster: HDBSCAN labels are a partition of non-noise points ----

TEST_P(SeededProperty, HdbscanLabelsPartition) {
  Rng rng(GetParam());
  Matrix data(160, 4);
  for (size_t i = 0; i < 160; ++i) {
    // Two loose blobs + noise.
    float cx = i % 2 == 0 ? 10.f : -10.f;
    for (size_t j = 0; j < 4; ++j) {
      data.At(i, j) = cx + static_cast<float>(rng.NextGaussian());
    }
  }
  cluster::HdbscanOptions options;
  options.min_cluster_size = 10;
  auto result = cluster::Hdbscan(data, options).MoveValue();
  std::set<size_t> seen;
  for (const auto& c : result.clusters) {
    for (size_t member : c.members) {
      EXPECT_TRUE(seen.insert(member).second) << "member in two clusters";
    }
  }
  for (size_t i = 0; i < result.labels.size(); ++i) {
    if (result.labels[i] == cluster::kNoise) {
      EXPECT_EQ(seen.count(i), 0u);
    } else {
      EXPECT_EQ(seen.count(i), 1u);
    }
  }
}

// ---- embed: encoding is permutation-sensitive only through weights ----

TEST_P(SeededProperty, EncoderPoolingOrderInvariant) {
  embed::EncoderOptions options;
  options.dim = 64;
  options.seed = GetParam();
  embed::SemanticEncoder encoder(options,
                                 std::make_shared<embed::Lexicon>());
  // Mean pooling is order-invariant.
  Vec forward = encoder.EncodeTokens({"alpha", "beta", "gamma"});
  Vec backward = encoder.EncodeTokens({"gamma", "beta", "alpha"});
  for (size_t i = 0; i < forward.size(); ++i) {
    EXPECT_NEAR(forward[i], backward[i], 1e-5);
  }
}

TEST_P(SeededProperty, EncoderUnitNormOnRandomText) {
  embed::EncoderOptions options;
  options.dim = 96;
  options.seed = GetParam();
  embed::SemanticEncoder encoder(options, std::make_shared<embed::Lexicon>());
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    std::string text;
    size_t words = 1 + rng.NextBounded(12);
    for (size_t w = 0; w < words; ++w) {
      if (w) text.push_back(' ');
      for (int c = 0; c < 5; ++c) {
        text.push_back(static_cast<char>('a' + rng.NextBounded(26)));
      }
    }
    EXPECT_NEAR(vecmath::Norm(encoder.EncodeText(text)), 1.0f, 1e-4);
  }
}

// ---- ir: NDCG is maximized by the by-grade ordering ----

TEST_P(SeededProperty, NdcgMaximizedByIdealOrdering) {
  Rng rng(GetParam());
  ir::Qrels qrels;
  std::vector<ir::DocId> docs(15);
  std::iota(docs.begin(), docs.end(), 0);
  std::vector<std::pair<int, ir::DocId>> graded;
  for (ir::DocId d : docs) {
    int grade = static_cast<int>(rng.NextBounded(3));
    qrels.Add(0, d, grade);
    graded.push_back({grade, d});
  }
  std::sort(graded.begin(), graded.end(), std::greater<>());
  std::vector<ir::DocId> ideal;
  for (const auto& [grade, d] : graded) ideal.push_back(d);
  double best = ir::NdcgAt(ideal, qrels, 0, 10);
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(&docs);
    EXPECT_LE(ir::NdcgAt(docs, qrels, 0, 10), best + 1e-9);
  }
}

// ---- ir: AP of a random ranking is below AP of the ideal ranking ----

TEST_P(SeededProperty, ApIdealDominatesRandom) {
  Rng rng(GetParam());
  ir::Qrels qrels;
  std::vector<ir::DocId> docs(20);
  std::iota(docs.begin(), docs.end(), 0);
  std::vector<ir::DocId> relevant;
  for (ir::DocId d : docs) {
    bool rel = rng.NextBernoulli(0.3);
    qrels.Add(0, d, rel ? 1 : 0);
    if (rel) relevant.push_back(d);
  }
  if (relevant.empty()) return;
  double ideal = ir::AveragePrecision(relevant, qrels, 0);
  EXPECT_NEAR(ideal, 1.0, 1e-9);
  rng.Shuffle(&docs);
  EXPECT_LE(ir::AveragePrecision(docs, qrels, 0), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ull, 17ull, 4242ull, 90210ull,
                                           0xDEADBEEFull));

}  // namespace
}  // namespace mira
