// Unit + property tests for src/index: flat, HNSW (recall vs exact oracle),
// product quantization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <unordered_set>

#include "common/rng.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/product_quantizer.h"
#include "obs/trace.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira::index {
namespace {

using vecmath::Matrix;
using vecmath::Metric;
using vecmath::Vec;

// Random unit vectors with `clusters` planted centers (so ANN search has
// structure to exploit).
Matrix MakeClusteredData(size_t n, size_t dim, size_t clusters, uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t j = 0; j < dim; ++j) {
      centers.At(c, j) = static_cast<float>(rng.NextGaussian());
    }
    vecmath::NormalizeInPlace(centers.Row(c), dim);
  }
  Matrix data(n, dim);
  for (size_t i = 0; i < n; ++i) {
    size_t c = i % clusters;
    for (size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + 0.25f * static_cast<float>(rng.NextGaussian());
    }
    vecmath::NormalizeInPlace(data.Row(i), dim);
  }
  return data;
}

double RecallAtK(const std::vector<vecmath::ScoredId>& approx,
                 const std::vector<vecmath::ScoredId>& exact, size_t k) {
  std::unordered_set<uint64_t> truth;
  for (size_t i = 0; i < exact.size() && i < k; ++i) truth.insert(exact[i].id);
  size_t hits = 0;
  for (size_t i = 0; i < approx.size() && i < k; ++i) {
    hits += truth.count(approx[i].id);
  }
  return truth.empty() ? 1.0 : static_cast<double>(hits) / truth.size();
}

// ---------- FlatIndex ----------

TEST(FlatIndexTest, ExactNearestByCosine) {
  FlatIndex index(Metric::kCosine);
  ASSERT_TRUE(index.Add(1, {1, 0}).ok());
  ASSERT_TRUE(index.Add(2, {0, 1}).ok());
  ASSERT_TRUE(index.Add(3, {0.9f, 0.1f}).ok());
  ASSERT_TRUE(index.Build().ok());
  auto hits = index.Search({1, 0}, {2, 0}).MoveValue();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 3u);
  EXPECT_NEAR(hits[0].score, 1.0f, 1e-5);
}

TEST(FlatIndexTest, SearchBeforeBuildFails) {
  FlatIndex index;
  ASSERT_TRUE(index.Add(1, {1, 0}).ok());
  EXPECT_TRUE(index.Search({1, 0}, {1, 0}).status().IsFailedPrecondition());
}

TEST(FlatIndexTest, AddAfterBuildFails) {
  FlatIndex index;
  ASSERT_TRUE(index.Add(1, {1, 0}).ok());
  ASSERT_TRUE(index.Build().ok());
  EXPECT_TRUE(index.Add(2, {0, 1}).IsFailedPrecondition());
}

TEST(FlatIndexTest, DimMismatchRejected) {
  FlatIndex index;
  ASSERT_TRUE(index.Add(1, {1, 0}).ok());
  EXPECT_TRUE(index.Add(2, {1, 0, 0}).IsInvalidArgument());
}

TEST(FlatIndexTest, DoubleBuildFails) {
  FlatIndex index;
  ASSERT_TRUE(index.Add(1, {1, 0}).ok());
  ASSERT_TRUE(index.Build().ok());
  EXPECT_TRUE(index.Build().IsFailedPrecondition());
}

TEST(FlatIndexTest, L2MetricOrders) {
  FlatIndex index(Metric::kL2);
  ASSERT_TRUE(index.Add(1, {0, 0}).ok());
  ASSERT_TRUE(index.Add(2, {5, 5}).ok());
  ASSERT_TRUE(index.Build().ok());
  auto hits = index.Search({1, 1}, {2, 0}).MoveValue();
  EXPECT_EQ(hits[0].id, 1u);
}

TEST(FlatIndexTest, DotMetricOrders) {
  FlatIndex index(Metric::kDot);
  ASSERT_TRUE(index.Add(1, {1, 0}).ok());
  ASSERT_TRUE(index.Add(2, {3, 0}).ok());
  ASSERT_TRUE(index.Build().ok());
  auto hits = index.Search({1, 0}, {2, 0}).MoveValue();
  EXPECT_EQ(hits[0].id, 2u);  // dot rewards magnitude
}

TEST(FlatIndexTest, MemoryBytesPositive) {
  FlatIndex index;
  ASSERT_TRUE(index.Add(1, Vec(16, 0.5f)).ok());
  ASSERT_TRUE(index.Build().ok());
  EXPECT_GE(index.MemoryUsage().total(), 16 * sizeof(float));
}

// ---------- ProductQuantizer ----------

TEST(ProductQuantizerTest, TrainRejectsIndivisibleDim) {
  Matrix data = MakeClusteredData(300, 30, 4, 1);
  PqOptions options;
  options.num_subquantizers = 7;  // 30 % 7 != 0
  EXPECT_TRUE(ProductQuantizer::Train(data, options).status().IsInvalidArgument());
}

TEST(ProductQuantizerTest, EncodeDecodeRoundTripApproximates) {
  Matrix data = MakeClusteredData(600, 32, 8, 2);
  PqOptions options;
  options.num_subquantizers = 8;
  auto pq = ProductQuantizer::Train(data, options).MoveValue();
  EXPECT_EQ(pq.code_bytes(), 8u);

  Vec original = data.RowVec(0);
  Vec reconstructed = pq.Decode(pq.Encode(original));
  // Reconstruction error must be far below the norm of the vector.
  EXPECT_LT(vecmath::SquaredL2(original, reconstructed), 0.5f);
}

TEST(ProductQuantizerTest, MoreSubquantizersLowerError) {
  Matrix data = MakeClusteredData(800, 32, 8, 3);
  PqOptions coarse, fine;
  coarse.num_subquantizers = 2;
  fine.num_subquantizers = 16;
  auto pq_coarse = ProductQuantizer::Train(data, coarse).MoveValue();
  auto pq_fine = ProductQuantizer::Train(data, fine).MoveValue();
  EXPECT_LT(pq_fine.ReconstructionError(data),
            pq_coarse.ReconstructionError(data));
}

TEST(ProductQuantizerTest, AdcApproximatesTrueDistance) {
  Matrix data = MakeClusteredData(600, 32, 8, 4);
  PqOptions options;
  options.num_subquantizers = 16;
  auto pq = ProductQuantizer::Train(data, options).MoveValue();

  Rng rng(9);
  Vec query(32);
  for (auto& x : query) x = static_cast<float>(rng.NextGaussian());
  vecmath::NormalizeInPlace(&query);
  auto table = pq.ComputeDistanceTable(query);

  for (size_t i = 0; i < 50; ++i) {
    Vec row = data.RowVec(i);
    std::vector<uint8_t> codes = pq.Encode(row);
    float adc = pq.AdcDistance(table, codes.data());
    float exact = vecmath::SquaredL2(query, row);
    EXPECT_NEAR(adc, exact, 0.6f);
  }
}

TEST(ProductQuantizerTest, TinyTrainingSetStillWorks) {
  // Fewer rows than the 256-entry codebook.
  Matrix data = MakeClusteredData(40, 16, 4, 5);
  PqOptions options;
  options.num_subquantizers = 4;
  auto pq = ProductQuantizer::Train(data, options).MoveValue();
  Vec v = data.RowVec(0);
  EXPECT_EQ(pq.Encode(v).size(), 4u);
}

TEST(ProductQuantizerTest, TrainingSampleCapStillAccurate) {
  Matrix data = MakeClusteredData(3000, 16, 8, 6);
  PqOptions capped;
  capped.num_subquantizers = 4;
  capped.max_training_rows = 512;
  auto pq = ProductQuantizer::Train(data, capped).MoveValue();
  EXPECT_LT(pq.ReconstructionError(data), 0.3);
}

TEST(ProductQuantizerTest, EncodeBatchMatchesEncode) {
  Matrix data = MakeClusteredData(200, 32, 4, 9);
  PqOptions options;
  options.num_subquantizers = 8;
  auto pq = ProductQuantizer::Train(data, options).MoveValue();
  std::vector<uint8_t> batch(data.rows() * pq.code_bytes());
  pq.EncodeBatch(data, batch.data());
  for (size_t i = 0; i < data.rows(); ++i) {
    std::vector<uint8_t> one = pq.Encode(data.RowVec(i));
    for (size_t s = 0; s < pq.code_bytes(); ++s) {
      ASSERT_EQ(batch[i * pq.code_bytes() + s], one[s])
          << "row=" << i << " s=" << s;
    }
  }
}

// ---------- HNSW ----------

TEST(HnswIndexTest, EmptyBuildFails) {
  HnswIndex index;
  EXPECT_TRUE(index.Build().IsFailedPrecondition());
}

TEST(HnswIndexTest, SingleElement) {
  HnswIndex index;
  ASSERT_TRUE(index.Add(42, {1, 0, 0, 0}).ok());
  ASSERT_TRUE(index.Build().ok());
  auto hits = index.Search({1, 0, 0, 0}, {1, 0}).MoveValue();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 42u);
  EXPECT_NEAR(hits[0].score, 1.0f, 1e-5);
}

TEST(HnswIndexTest, HighRecallVsExactOracle) {
  const size_t n = 2000, dim = 32, k = 10;
  Matrix data = MakeClusteredData(n, dim, 20, 7);

  FlatIndex exact(Metric::kCosine);
  HnswIndex approx;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(exact.Add(i, data.RowVec(i)).ok());
    ASSERT_TRUE(approx.Add(i, data.RowVec(i)).ok());
  }
  ASSERT_TRUE(exact.Build().ok());
  ASSERT_TRUE(approx.Build().ok());

  Rng rng(11);
  double total_recall = 0;
  const int kQueries = 30;
  for (int q = 0; q < kQueries; ++q) {
    Vec query = data.RowVec(rng.NextBounded(n));
    auto truth = exact.Search(query, {k, 0}).MoveValue();
    auto hits = approx.Search(query, {k, 128}).MoveValue();
    total_recall += RecallAtK(hits, truth, k);
  }
  EXPECT_GT(total_recall / kQueries, 0.9);
}

TEST(HnswIndexTest, LargerEfImprovesRecall) {
  const size_t n = 1500, dim = 24, k = 10;
  Matrix data = MakeClusteredData(n, dim, 30, 13);
  FlatIndex exact(Metric::kCosine);
  HnswOptions opts;
  opts.ef_construction = 60;
  opts.M = 8;
  HnswIndex approx(opts);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(exact.Add(i, data.RowVec(i)).ok());
    ASSERT_TRUE(approx.Add(i, data.RowVec(i)).ok());
  }
  ASSERT_TRUE(exact.Build().ok());
  ASSERT_TRUE(approx.Build().ok());

  Rng rng(15);
  double recall_small = 0, recall_large = 0;
  const int kQueries = 25;
  for (int q = 0; q < kQueries; ++q) {
    Vec query = data.RowVec(rng.NextBounded(n));
    auto truth = exact.Search(query, {k, 0}).MoveValue();
    recall_small += RecallAtK(approx.Search(query, {k, 10}).MoveValue(), truth, k);
    recall_large += RecallAtK(approx.Search(query, {k, 200}).MoveValue(), truth, k);
  }
  EXPECT_GE(recall_large, recall_small);
  EXPECT_GT(recall_large / kQueries, 0.9);
}

TEST(HnswIndexTest, DegreeBounds) {
  const size_t n = 800;
  HnswOptions opts;
  opts.M = 6;
  HnswIndex index(opts);
  Matrix data = MakeClusteredData(n, 16, 8, 17);
  for (size_t i = 0; i < n; ++i) ASSERT_TRUE(index.Add(i, data.RowVec(i)).ok());
  ASSERT_TRUE(index.Build().ok());
  size_t upper_entries = 0;
  for (uint32_t node = 0; node < n; ++node) {
    // Layer 0 comes from the flat array: every node is linked, none past 2M.
    EXPECT_GE(index.Degree(node, 0), 1u);
    EXPECT_LE(index.Degree(node, 0), opts.M * 2);
    for (int level = 1; level <= index.max_level(); ++level) {
      EXPECT_LE(index.Degree(node, level), opts.M);
      upper_entries += index.Degree(node, level);
    }
    EXPECT_EQ(index.Degree(node, index.max_level() + 1), 0u);
  }
  // Layer 0 is counted once, as its fixed-stride rows ([count, 2M slots]
  // per node); upper layers count their entries.
  EXPECT_EQ(index.MemoryUsage().graph_bytes,
            (n * (1 + opts.M * 2) + upper_entries) * sizeof(uint32_t));
}

TEST(HnswIndexTest, DeterministicGivenSeed) {
  Matrix data = MakeClusteredData(500, 16, 8, 19);
  auto build = [&]() {
    HnswOptions opts;
    opts.seed = 99;
    auto index = std::make_unique<HnswIndex>(opts);
    for (size_t i = 0; i < data.rows(); ++i) {
      EXPECT_TRUE(index->Add(i, data.RowVec(i)).ok());
    }
    EXPECT_TRUE(index->Build().ok());
    return index;
  };
  auto a = build();
  auto b = build();
  Vec query = data.RowVec(123);
  auto ha = a->Search(query, {5, 64}).MoveValue();
  auto hb = b->Search(query, {5, 64}).MoveValue();
  ASSERT_EQ(ha.size(), hb.size());
  for (size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i].id, hb[i].id);
}

TEST(HnswIndexTest, ScratchReuseKeepsRepeatedQueriesIdentical) {
  // Search reuses pooled SearchScratch (epoch-stamped visited array, reused
  // heap storage); repeating and interleaving queries must give bit-identical
  // rankings to the first pass — any stale scratch state would perturb them.
  const size_t n = 600;
  Matrix data = MakeClusteredData(n, 16, 8, 29);
  HnswIndex index;
  for (size_t i = 0; i < n; ++i) ASSERT_TRUE(index.Add(i, data.RowVec(i)).ok());
  ASSERT_TRUE(index.Build().ok());

  std::vector<Vec> queries;
  for (size_t q = 0; q < 8; ++q) queries.push_back(data.RowVec(q * 37));
  std::vector<std::vector<vecmath::ScoredId>> first;
  for (const Vec& q : queries) {
    first.push_back(index.Search(q, {10, 48}).MoveValue());
  }
  // Three more passes, interleaved in different orders, all through the same
  // scratch pool.
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      size_t pick = (pass % 2 == 0) ? qi : queries.size() - 1 - qi;
      auto again = index.Search(queries[pick], {10, 48}).MoveValue();
      ASSERT_EQ(again.size(), first[pick].size());
      for (size_t i = 0; i < again.size(); ++i) {
        EXPECT_EQ(again[i].id, first[pick][i].id) << "pass=" << pass;
        EXPECT_EQ(again[i].score, first[pick][i].score) << "pass=" << pass;
      }
    }
  }
}

TEST(HnswIndexTest, QuantizedSearchWithRescoringKeepsRecall) {
  const size_t n = 1500, dim = 32, k = 10;
  Matrix data = MakeClusteredData(n, dim, 15, 21);
  FlatIndex exact(Metric::kCosine);
  HnswOptions opts;
  PqOptions pq;
  pq.num_subquantizers = 8;
  opts.quantization = pq;
  HnswIndex quantized(opts);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(exact.Add(i, data.RowVec(i)).ok());
    ASSERT_TRUE(quantized.Add(i, data.RowVec(i)).ok());
  }
  ASSERT_TRUE(exact.Build().ok());
  ASSERT_TRUE(quantized.Build().ok());
  EXPECT_EQ(quantized.name(), "hnsw+pq");

  Rng rng(23);
  double recall = 0;
  const int kQueries = 25;
  for (int q = 0; q < kQueries; ++q) {
    Vec query = data.RowVec(rng.NextBounded(n));
    auto truth = exact.Search(query, {k, 0}).MoveValue();
    recall += RecallAtK(quantized.Search(query, {k, 128}).MoveValue(), truth, k);
  }
  EXPECT_GT(recall / kQueries, 0.75);
}

// Differential check against brute force: exact and PQ 8-bit HNSW on
// seeded clustered corpora, scored by mean recall@10 against a FlatIndex
// oracle. Queries are perturbed corpus rows, not corpus rows, so the
// nearest neighbour is not simply the query itself. Each floor sits a
// margin below the recall measured when the test was written (in the
// comments); a traversal or quantizer change that loses neighbours fails.
TEST(HnswIndexTest, RecallVsBruteForce) {
  constexpr size_t kN = 2000, kDim = 32, kK = 10, kEf = 64, kQueries = 60;
  struct Config {
    const char* name;
    bool quantized;
    double floor;
  };
  // Measured recall@10 per seed (101 / 202 / 303): exact 1.000 / 1.000 /
  // 0.998, PQ 8-bit 0.992 / 0.995 / 0.997.
  const Config configs[] = {{"exact", false, 0.97}, {"pq8", true, 0.95}};
  for (uint64_t seed : {101u, 202u, 303u}) {
    Matrix data = MakeClusteredData(kN, kDim, 25, seed);
    FlatIndex oracle(Metric::kCosine);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(oracle.Add(i, data.RowVec(i)).ok());
    }
    ASSERT_TRUE(oracle.Build().ok());
    Rng rng(seed * 7 + 1);
    std::vector<Vec> queries;
    for (size_t q = 0; q < kQueries; ++q) {
      Vec query = data.RowVec(rng.NextBounded(kN));
      for (float& x : query) x += 0.1f * static_cast<float>(rng.NextGaussian());
      queries.push_back(std::move(query));
    }
    for (const Config& config : configs) {
      HnswOptions options;
      options.seed = seed;
      if (config.quantized) {
        PqOptions pq;
        pq.num_subquantizers = 8;
        options.quantization = pq;
      }
      HnswIndex index(options);
      for (size_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(index.Add(i, data.RowVec(i)).ok());
      }
      ASSERT_TRUE(index.Build().ok());
      double recall = 0;
      for (const Vec& query : queries) {
        auto truth = oracle.Search(query, {kK, 0}).MoveValue();
        auto hits = index.Search(query, {kK, kEf}).MoveValue();
        recall += RecallAtK(hits, truth, kK);
      }
      recall /= kQueries;
      RecordProperty(std::string(config.name) + "_seed" + std::to_string(seed),
                     std::to_string(recall));
      EXPECT_GE(recall, config.floor) << config.name << " seed " << seed;
    }
  }
}

// FNV-1a hashes over every query's top-k (id, score bits) in rank order
// (.first) and over its traversal effort, the hnsw.search span's counters
// (.second).
std::pair<uint64_t, uint64_t> TopKFingerprint(const HnswIndex& index,
                                              const Matrix& queries, size_t k,
                                              size_t ef) {
  std::pair<uint64_t, uint64_t> hashes{0xcbf29ce484222325ULL,
                                       0xcbf29ce484222325ULL};
  auto mix = [](uint64_t* hash, uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      *hash ^= (value >> (8 * byte)) & 0xFF;
      *hash *= 0x100000001b3ULL;
    }
  };
  for (size_t q = 0; q < queries.rows(); ++q) {
    obs::QueryTrace trace;
    std::vector<vecmath::ScoredId> hits;
    {
      obs::ScopedTrace collect(&trace);
      hits = index.Search(queries.RowVec(q), {k, ef}).MoveValue();
    }
    mix(&hashes.first, hits.size());
    for (const auto& hit : hits) {
      uint32_t bits = 0;
      std::memcpy(&bits, &hit.score, sizeof(bits));
      mix(&hashes.first, hit.id);
      mix(&hashes.first, bits);
    }
    for (const char* counter : {"dist_comps", "adc_decoded", "popped"}) {
      mix(&hashes.second, static_cast<uint64_t>(
                              trace.CounterValue("hnsw.search", counter)));
    }
  }
  return hashes;
}

// The L2 index the traversal fingerprints pin: M = 8, and PQ with 8
// subquantizers when `quantized`.
std::unique_ptr<HnswIndex> FingerprintIndex(const Matrix& data,
                                            size_t ef_construction,
                                            uint64_t seed, bool quantized) {
  HnswOptions opts;
  opts.M = 8;
  opts.ef_construction = ef_construction;
  opts.metric = Metric::kL2;
  opts.seed = seed;
  if (quantized) {
    PqOptions pq;
    pq.num_subquantizers = 8;
    opts.quantization = pq;
  }
  auto index = std::make_unique<HnswIndex>(opts);
  for (size_t i = 0; i < data.rows(); ++i) {
    EXPECT_TRUE(index->Add(i, data.RowVec(i)).ok());
  }
  EXPECT_TRUE(index->Build().ok());
  return index;
}

// Effort hashes need the span counters, which -DMIRA_OBS=OFF compiles out.
void ExpectFingerprint(std::pair<uint64_t, uint64_t> got, uint64_t ranking,
                       uint64_t effort) {
  EXPECT_EQ(got.first, ranking);
  if (obs::kObsEnabled) {
    EXPECT_EQ(got.second, effort);
  }
}

TEST(HnswIndexTest, TraversalMatchesParentFingerprint) {
  // Pins construction and search bit for bit: the rankings, and the
  // distance evaluations and pops that produced them. The constants were
  // recorded on the nested-vector adjacency with a per-neighbour distance
  // loop, before layer 0 became one flat array walked by a
  // gather-then-batch beam. L2 keeps Add() and Search() free of the
  // tier-dependent normalization. Distances run on the active SIMD tier,
  // whose sums round differently from the scalar reference's: the scalar
  // constants hold under MIRA_FORCE_SCALAR=1, and the AVX2 ones differ in
  // the ranking hashes only (the same nodes are evaluated and popped). No
  // other tier is checked.
  // k = ef returns the whole final beam, so a change in which nodes enter
  // it shows even where the top few survive.
  const size_t n = 1200, dim = 32, k = 32, ef = 32;
  Rng rng(4242);
  Matrix data(n, dim);
  for (size_t i = 0; i < n; ++i) {
    const float center = static_cast<float>(i % 12);
    for (size_t j = 0; j < dim; ++j) {
      data.At(i, j) = (j % 12 == i % 12 ? center : 0.f) +
                      static_cast<float>(rng.NextGaussian());
    }
  }
  Matrix queries(30, dim);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (size_t j = 0; j < dim; ++j) {
      queries.At(q, j) =
          data.At(q * 37, j) + 0.5f * static_cast<float>(rng.NextGaussian());
    }
  }
  auto fingerprint = [&](bool quantized) {
    return TopKFingerprint(*FingerprintIndex(data, 64, 5, quantized), queries,
                           k, ef);
  };
  const vecmath::SimdTier tier = vecmath::ActiveSimdTier();
  if (tier != vecmath::SimdTier::kScalar && tier != vecmath::SimdTier::kAvx2) {
    GTEST_SKIP() << "no recorded fingerprints for this tier";
  }
  const bool scalar = tier == vecmath::SimdTier::kScalar;
  ExpectFingerprint(fingerprint(false),
                    scalar ? 17909920715436095480ULL : 6690221986900891281ULL,
                    9228334547508009012ULL);
  ExpectFingerprint(fingerprint(true),
                    scalar ? 8083439478480731754ULL : 4889890317844094625ULL,
                    932191962552928697ULL);
}

TEST(HnswIndexTest, TieHeavyTraversalMatchesParentFingerprint) {
  // The same pin on data built for exact distance ties at the beam's
  // boundary. Integer coordinates make every exact squared-L2 distance an
  // integer, and each vector is added three times, so duplicates share a
  // distance and, quantized, an identical code. The constants were recorded
  // on the two-heap beam, before it became one sorted candidate pool.
  // Integer sums this small are exact in any order, so the exact hashes hold
  // on every tier; the quantized ones were recorded on the scalar and AVX2
  // tiers, which agree here, and are not checked elsewhere.
  const size_t distinct = 700, copies = 3, dim = 32;
  Rng rng(1717);
  Matrix data(distinct * copies, dim);
  for (size_t i = 0; i < distinct; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      const float value = (j % 7 == i % 7 ? 3.f : 0.f) +
                          static_cast<float>(rng.NextBounded(3));
      for (size_t c = 0; c < copies; ++c) data.At(c * distinct + i, j) = value;
    }
  }
  Matrix queries(24, dim);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (size_t j = 0; j < dim; ++j) {
      queries.At(q, j) = data.At(q * 29, j) +
                         static_cast<float>(rng.NextBounded(3)) - 1.f;
    }
  }
  // One ranking and one effort hash over ef = k in {8, 32, 100}.
  auto fingerprint = [&](bool quantized) {
    std::unique_ptr<HnswIndex> index =
        FingerprintIndex(data, 48, 9, quantized);
    std::pair<uint64_t, uint64_t> combined{0, 0};
    for (size_t ef : {8, 32, 100}) {
      const auto got = TopKFingerprint(*index, queries, ef, ef);
      combined.first = combined.first * 0x100000001b3ULL ^ got.first;
      combined.second = combined.second * 0x100000001b3ULL ^ got.second;
    }
    return combined;
  };
  ExpectFingerprint(fingerprint(false), 4389739146173058032ULL,
                    14468117544598013859ULL);
  if (vecmath::ActiveSimdTier() == vecmath::SimdTier::kNeon) {
    GTEST_SKIP() << "no recorded quantized fingerprints for this tier";
  }
  ExpectFingerprint(fingerprint(true), 1339682225500978091ULL,
                    9512239891798705215ULL);
}

TEST(HnswIndexTest, MemoryUsageSeparatesCodebookFromCodes) {
  const size_t n = 100, dim = 32, m = 8;
  Matrix data = MakeClusteredData(n, dim, 4, 71);
  HnswOptions opts;
  PqOptions pq;
  pq.num_subquantizers = m;
  opts.quantization = pq;
  HnswIndex index(opts);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(index.Add(i, data.RowVec(i)).ok());
  }
  ASSERT_TRUE(index.Build().ok());
  const MemoryStats stats = index.MemoryUsage();
  // Payload: one byte per subquantizer per vector.
  EXPECT_EQ(stats.codes_bytes, n * m);
  // Model: m codebooks of 256 centroids of dim/m floats.
  EXPECT_EQ(stats.codebook_bytes, m * 256 * (dim / m) * sizeof(float));
  EXPECT_EQ(stats.vectors_bytes, n * dim * sizeof(float));
  EXPECT_EQ(stats.ids_bytes, n * sizeof(uint64_t));
}

TEST(HnswIndexTest, QuantizedDotMetricRejected) {
  HnswOptions opts;
  opts.metric = Metric::kDot;
  PqOptions pq;
  opts.quantization = pq;
  HnswIndex index(opts);
  ASSERT_TRUE(index.Add(0, Vec(16, 0.25f)).ok());
  EXPECT_TRUE(index.Build().IsNotImplemented());
}

// Parameterized recall sweep across M (property-style).
class HnswMSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(HnswMSweep, RecallAboveFloor) {
  const size_t n = 1000, dim = 24, k = 5;
  Matrix data = MakeClusteredData(n, dim, 10, 31);
  FlatIndex exact(Metric::kCosine);
  HnswOptions opts;
  opts.M = GetParam();
  HnswIndex approx(opts);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(exact.Add(i, data.RowVec(i)).ok());
    ASSERT_TRUE(approx.Add(i, data.RowVec(i)).ok());
  }
  ASSERT_TRUE(exact.Build().ok());
  ASSERT_TRUE(approx.Build().ok());
  Rng rng(33);
  double recall = 0;
  for (int q = 0; q < 20; ++q) {
    Vec query = data.RowVec(rng.NextBounded(n));
    auto truth = exact.Search(query, {k, 0}).MoveValue();
    recall += RecallAtK(approx.Search(query, {k, 100}).MoveValue(), truth, k);
  }
  EXPECT_GT(recall / 20, 0.85);
}

INSTANTIATE_TEST_SUITE_P(MValues, HnswMSweep, ::testing::Values(4, 8, 16, 32));

}  // namespace
}  // namespace mira::index
