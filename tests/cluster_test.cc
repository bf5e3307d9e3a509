// Unit + property tests for src/cluster: k-means and HDBSCAN.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "cluster/hdbscan.h"
#include "cluster/kmeans.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira::cluster {
namespace {

using vecmath::Matrix;
using vecmath::Vec;

// `blobs` well-separated Gaussian blobs of `per_blob` points each.
Matrix MakeBlobs(size_t blobs, size_t per_blob, size_t dim, double spread,
                 uint64_t seed, std::vector<int32_t>* truth = nullptr) {
  Rng rng(seed);
  Matrix data(blobs * per_blob, dim);
  if (truth != nullptr) truth->resize(blobs * per_blob);
  for (size_t b = 0; b < blobs; ++b) {
    Vec center(dim);
    for (auto& x : center) x = static_cast<float>(rng.NextGaussian() * 20.0);
    for (size_t i = 0; i < per_blob; ++i) {
      size_t row = b * per_blob + i;
      for (size_t j = 0; j < dim; ++j) {
        data.At(row, j) =
            center[j] + static_cast<float>(rng.NextGaussian() * spread);
      }
      if (truth != nullptr) (*truth)[row] = static_cast<int32_t>(b);
    }
  }
  return data;
}

// Fraction of point pairs whose same/different-cluster relation agrees with
// ground truth (Rand index).
double RandIndex(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  size_t agree = 0, total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      ++total;
      bool same_a = a[i] == a[j];
      bool same_b = b[i] == b[j];
      if (same_a == same_b) ++agree;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(agree) / total;
}

// ---------- k-means ----------

TEST(KMeansTest, RejectsBadInputs) {
  Matrix data = MakeBlobs(2, 10, 4, 0.5, 1);
  KMeansOptions options;
  options.num_clusters = 0;
  EXPECT_TRUE(KMeans(data, options).status().IsInvalidArgument());
  options.num_clusters = 100;  // more clusters than points
  EXPECT_TRUE(KMeans(data, options).status().IsInvalidArgument());
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  std::vector<int32_t> truth;
  Matrix data = MakeBlobs(4, 50, 8, 0.5, 2, &truth);
  KMeansOptions options;
  options.num_clusters = 4;
  auto result = KMeans(data, options).MoveValue();
  EXPECT_GT(RandIndex(result.assignments, truth), 0.95);
  EXPECT_EQ(result.centroids.rows(), 4u);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Matrix data = MakeBlobs(6, 40, 6, 1.5, 3);
  KMeansOptions two, six;
  two.num_clusters = 2;
  six.num_clusters = 6;
  auto r2 = KMeans(data, two).MoveValue();
  auto r6 = KMeans(data, six).MoveValue();
  EXPECT_LT(r6.inertia, r2.inertia);
}

TEST(KMeansTest, DeterministicGivenSeed) {
  Matrix data = MakeBlobs(3, 30, 4, 1.0, 4);
  KMeansOptions options;
  options.num_clusters = 3;
  auto a = KMeans(data, options).MoveValue();
  auto b = KMeans(data, options).MoveValue();
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, AssignmentsPointToNearestCentroid) {
  Matrix data = MakeBlobs(3, 40, 5, 1.0, 5);
  KMeansOptions options;
  options.num_clusters = 3;
  auto result = KMeans(data, options).MoveValue();
  for (size_t i = 0; i < data.rows(); ++i) {
    float assigned = vecmath::SquaredL2(
        data.Row(i), result.centroids.Row(result.assignments[i]), data.cols());
    for (size_t c = 0; c < 3; ++c) {
      float d = vecmath::SquaredL2(data.Row(i), result.centroids.Row(c),
                                   data.cols());
      EXPECT_GE(d + 1e-4, assigned);
    }
  }
}

TEST(KMeansTest, KEqualsNAssignsSingletons) {
  Matrix data = MakeBlobs(1, 8, 3, 5.0, 6);
  KMeansOptions options;
  options.num_clusters = 8;
  auto result = KMeans(data, options).MoveValue();
  std::set<int32_t> used(result.assignments.begin(), result.assignments.end());
  EXPECT_EQ(used.size(), 8u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-6);
}

// ---------- HDBSCAN ----------

TEST(HdbscanTest, RejectsTinyMinClusterSize) {
  Matrix data = MakeBlobs(2, 20, 4, 0.5, 7);
  HdbscanOptions options;
  options.min_cluster_size = 1;
  EXPECT_TRUE(Hdbscan(data, options).status().IsInvalidArgument());
}

TEST(HdbscanTest, RejectsNonFiniteCoordinates) {
  HdbscanOptions options;
  options.min_cluster_size = 5;
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    Matrix data = MakeBlobs(2, 20, 4, 0.5, 7);
    data.At(13, 0) = bad;
    EXPECT_TRUE(Hdbscan(data, options).status().IsInvalidArgument());
  }
}

TEST(HdbscanTest, TooFewPointsAllNoise) {
  Matrix data = MakeBlobs(1, 4, 3, 0.5, 8);
  HdbscanOptions options;
  options.min_cluster_size = 8;
  auto result = Hdbscan(data, options).MoveValue();
  EXPECT_EQ(result.num_clusters(), 0u);
  EXPECT_EQ(result.num_noise(), 4u);
}

TEST(HdbscanTest, RecoversSeparatedBlobs) {
  std::vector<int32_t> truth;
  Matrix data = MakeBlobs(4, 60, 5, 0.4, 9, &truth);
  HdbscanOptions options;
  options.min_cluster_size = 10;
  auto result = Hdbscan(data, options).MoveValue();
  EXPECT_EQ(result.num_clusters(), 4u);
  // Compare labels on non-noise points only.
  std::vector<int32_t> pred, gt;
  for (size_t i = 0; i < result.labels.size(); ++i) {
    if (result.labels[i] != kNoise) {
      pred.push_back(result.labels[i]);
      gt.push_back(truth[i]);
    }
  }
  EXPECT_GT(pred.size(), result.labels.size() * 9 / 10);
  EXPECT_GT(RandIndex(pred, gt), 0.98);
}

TEST(HdbscanTest, UniformNoiseYieldsFewOrNoClusters) {
  Rng rng(10);
  Matrix data(120, 6);
  for (auto& x : data.data()) {
    x = static_cast<float>(rng.NextUniform(-50, 50));
  }
  HdbscanOptions options;
  options.min_cluster_size = 15;
  auto result = Hdbscan(data, options).MoveValue();
  // Uniform data has no density structure; expect mostly noise.
  EXPECT_LE(result.num_clusters(), 2u);
}

TEST(HdbscanTest, OutliersMarkedNoise) {
  std::vector<int32_t> truth;
  Matrix blobs = MakeBlobs(2, 50, 4, 0.3, 11, &truth);
  // Append far-away isolated points.
  Matrix data(blobs.rows() + 5, blobs.cols());
  for (size_t i = 0; i < blobs.rows(); ++i) data.SetRow(i, blobs.RowVec(i));
  Rng rng(12);
  for (size_t i = 0; i < 5; ++i) {
    Vec outlier(blobs.cols());
    for (auto& x : outlier) x = static_cast<float>(rng.NextUniform(200, 400));
    data.SetRow(blobs.rows() + i, outlier);
  }
  HdbscanOptions options;
  options.min_cluster_size = 10;
  auto result = Hdbscan(data, options).MoveValue();
  EXPECT_EQ(result.num_clusters(), 2u);
  size_t outlier_noise = 0;
  for (size_t i = blobs.rows(); i < data.rows(); ++i) {
    outlier_noise += result.labels[i] == kNoise;
  }
  EXPECT_GE(outlier_noise, 4u);
}

TEST(HdbscanTest, LabelsConsistentWithClusterMembers) {
  Matrix data = MakeBlobs(3, 40, 4, 0.4, 13);
  HdbscanOptions options;
  options.min_cluster_size = 8;
  auto result = Hdbscan(data, options).MoveValue();
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    for (size_t member : result.clusters[c].members) {
      EXPECT_EQ(result.labels[member], static_cast<int32_t>(c));
    }
  }
  // Every labeled point appears in exactly one member list.
  size_t total_members = 0;
  for (const auto& cluster : result.clusters) total_members += cluster.members.size();
  size_t labeled = result.labels.size() - result.num_noise();
  EXPECT_EQ(total_members, labeled);
}

TEST(HdbscanTest, DeterministicAcrossRuns) {
  Matrix data = MakeBlobs(3, 50, 5, 0.6, 14);
  HdbscanOptions options;
  options.min_cluster_size = 10;
  auto a = Hdbscan(data, options).MoveValue();
  auto b = Hdbscan(data, options).MoveValue();
  EXPECT_EQ(a.labels, b.labels);
}

TEST(HdbscanTest, StabilityPositiveForRealClusters) {
  Matrix data = MakeBlobs(2, 60, 4, 0.3, 15);
  HdbscanOptions options;
  options.min_cluster_size = 10;
  auto result = Hdbscan(data, options).MoveValue();
  for (const auto& cluster : result.clusters) {
    EXPECT_GT(cluster.stability, 0.0);
  }
}

// Parameterized sweep over min_cluster_size (property: blob recovery is
// stable across a reasonable range).
class HdbscanMcsSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(HdbscanMcsSweep, FourBlobsRecovered) {
  std::vector<int32_t> truth;
  Matrix data = MakeBlobs(4, 50, 5, 0.4, 16, &truth);
  HdbscanOptions options;
  options.min_cluster_size = GetParam();
  auto result = Hdbscan(data, options).MoveValue();
  EXPECT_EQ(result.num_clusters(), 4u);
}

INSTANTIATE_TEST_SUITE_P(MinClusterSizes, HdbscanMcsSweep,
                         ::testing::Values(5, 8, 12, 20));

// ---------- HDBSCAN stages against the straightforward reference ----------

// The core distances as first written: every other row's distance as a
// double root, then nth_element over the doubles.
std::vector<double> ReferenceCoreDistances(const Matrix& data, size_t k) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  std::vector<double> core(n, 0.0);
  if (n <= 1) return core;
  k = std::min(k, n - 1);
  std::vector<double> dists;
  for (size_t i = 0; i < n; ++i) {
    dists.clear();
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dists.push_back(std::sqrt(static_cast<double>(
          vecmath::ScalarSquaredL2(data.Row(i), data.Row(j), d))));
    }
    std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
    core[i] = dists[k - 1];
  }
  return core;
}

// Prim as first written: an in-tree mask, a relax sweep over all n points,
// then a separate argmin sweep whose strict `<` gives ties to the lowest id.
std::vector<internal::MstEdge> ReferenceMst(const Matrix& data,
                                            const std::vector<double>& core) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  std::vector<internal::MstEdge> edges;
  if (n <= 1) return edges;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, inf);
  std::vector<uint32_t> from(n, 0);
  uint32_t current = 0;
  in_tree[0] = true;
  for (size_t added = 1; added < n; ++added) {
    for (size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      double dist = std::sqrt(static_cast<double>(
          vecmath::ScalarSquaredL2(data.Row(current), data.Row(j), d)));
      double mr = std::max({core[current], core[j], dist});
      if (mr < best[j]) {
        best[j] = mr;
        from[j] = current;
      }
    }
    double min_w = inf;
    uint32_t next = 0;
    for (size_t j = 0; j < n; ++j) {
      if (!in_tree[j] && best[j] < min_w) {
        min_w = best[j];
        next = static_cast<uint32_t>(j);
      }
    }
    edges.push_back({min_w, from[next], next});
    in_tree[next] = true;
    current = next;
  }
  return edges;
}

// Integer lattice points with many repeats: nearly every distance has exact
// ties, which is where tie-breaking shows.
Matrix IntegerGrid(size_t n, size_t dim, int side, uint64_t seed) {
  Rng rng(seed);
  Matrix data(n, dim);
  for (auto& x : data.data()) {
    x = static_cast<float>(rng.NextBounded(static_cast<uint64_t>(side)));
  }
  return data;
}

// A full 2-D lattice in row order, each point twice.
Matrix DoubledLattice(int side) {
  Matrix data(static_cast<size_t>(2 * side * side), 2);
  size_t row = 0;
  for (int copy = 0; copy < 2; ++copy) {
    for (int x = 0; x < side; ++x) {
      for (int y = 0; y < side; ++y) {
        data.At(row, 0) = static_cast<float>(x);
        data.At(row, 1) = static_cast<float>(y);
        ++row;
      }
    }
  }
  return data;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << "row " << i;
  }
}

void ExpectSameMst(const std::vector<internal::MstEdge>& want,
                   const std::vector<internal::MstEdge>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(std::bit_cast<uint64_t>(want[e].weight),
              std::bit_cast<uint64_t>(got[e].weight))
        << "edge " << e;
    EXPECT_EQ(want[e].a, got[e].a) << "edge " << e;
    EXPECT_EQ(want[e].b, got[e].b) << "edge " << e;
  }
}

void CheckAgainstReference(const Matrix& data, size_t min_cluster_size) {
  ThreadPool pool(4);
  const std::vector<double> want_core =
      ReferenceCoreDistances(data, min_cluster_size);
  ExpectSameBits(want_core,
                 internal::CoreDistances(data, min_cluster_size, nullptr));
  ExpectSameBits(want_core,
                 internal::CoreDistances(data, min_cluster_size, &pool));

  const std::vector<internal::MstEdge> want_mst = ReferenceMst(data, want_core);
  ExpectSameMst(want_mst, internal::MutualReachabilityMst(data, want_core));

  const HdbscanResult want =
      internal::ClustersFromMst(want_mst, data.rows(), min_cluster_size);
  HdbscanOptions options;
  options.min_cluster_size = min_cluster_size;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto got = Hdbscan(data, options, p);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->labels, want.labels);
    ASSERT_EQ(got->clusters.size(), want.clusters.size());
    for (size_t c = 0; c < want.clusters.size(); ++c) {
      EXPECT_EQ(got->clusters[c].members, want.clusters[c].members);
      EXPECT_EQ(std::bit_cast<uint64_t>(got->clusters[c].stability),
                std::bit_cast<uint64_t>(want.clusters[c].stability));
    }
  }
}

TEST(HdbscanReferenceTest, TieHeavyIntegerGridsMatchReference) {
  CheckAgainstReference(DoubledLattice(12), 8);
  CheckAgainstReference(IntegerGrid(400, 5, 4, 21), 8);
  CheckAgainstReference(IntegerGrid(300, 3, 3, 22), 5);
  CheckAgainstReference(IntegerGrid(257, 2, 6, 23), 12);
}

TEST(HdbscanReferenceTest, BlobsMatchReference) {
  CheckAgainstReference(MakeBlobs(4, 60, 5, 0.4, 24), 10);
  // Blobs snapped to the integer lattice: clusters plus exact ties.
  Matrix snapped = MakeBlobs(3, 70, 4, 2.0, 25);
  for (auto& x : snapped.data()) x = std::round(x);
  CheckAgainstReference(snapped, 8);
}

// ---------- Weighted points against their expanded copies ----------

// A copy count per row of `data`: mostly 1 to 3, with every fifth row
// given min_cluster_size - 1 to + 1 copies, so some rows carry a cluster
// alone, at a core distance of 0 or (with exactly min_cluster_size copies)
// above it.
std::vector<uint32_t> RandomCopies(const Matrix& data, size_t min_cluster_size,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> copies(data.rows());
  for (size_t i = 0; i < copies.size(); ++i) {
    copies[i] = static_cast<uint32_t>(
        i % 5 == 0 ? min_cluster_size - 1 + rng.NextBounded(3)
                   : 1 + rng.NextBounded(3));
  }
  return copies;
}

// `data` with row i repeated copies[i] times, copies adjacent; first[i] is
// the expanded row of row i's first copy.
Matrix Expand(const Matrix& data, const std::vector<uint32_t>& copies,
              std::vector<uint32_t>* first) {
  const size_t total = std::accumulate(copies.begin(), copies.end(), size_t{0});
  Matrix expanded(total, data.cols());
  first->clear();
  size_t row = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    first->push_back(static_cast<uint32_t>(row));
    for (uint32_t c = 0; c < copies[i]; ++c) expanded.SetRow(row++, data.RowVec(i));
  }
  return expanded;
}

TEST(HdbscanTest, CoreDistancesCountCopies) {
  // A row's other copies count at distance 0 and a neighbour once per copy:
  // bit for bit the full scan over the expanded rows, with k below, at and
  // past a row's copy count.
  std::vector<std::pair<Matrix, std::vector<size_t>>> cases;
  cases.push_back({IntegerGrid(120, 3, 4, 41), {1, 4, 8, 13}});
  cases.push_back({MakeBlobs(3, 30, 4, 0.5, 42), {2, 8, 30}});
  Matrix two(2, 2);
  two.At(1, 0) = 3.f;
  cases.push_back({two, {1, 4, 40}});
  ThreadPool pool(3);
  for (size_t c = 0; c < cases.size(); ++c) {
    const Matrix& data = cases[c].first;
    const std::vector<uint32_t> copies = RandomCopies(data, 6, 43 + c);
    std::vector<uint32_t> first;
    const Matrix expanded = Expand(data, copies, &first);
    for (size_t k : cases[c].second) {
      SCOPED_TRACE("case " + std::to_string(c) + ", k = " + std::to_string(k));
      const std::vector<double> all = ReferenceCoreDistances(expanded, k);
      std::vector<double> want;
      for (uint32_t row : first) want.push_back(all[row]);
      ExpectSameBits(want, internal::CoreDistances(data, k, nullptr, copies));
      ExpectSameBits(want, internal::CoreDistances(data, k, &pool, copies));
    }
  }
}

// Weighted HDBSCAN against the expanded rows, clustered by the plain path
// from their MST: the distinct rows' MST (the expanded MST less each row's
// copy edges), and before it each row's copies chained at its core
// distance, so they merge first among equal weights, as hdbscan.h states.
void CheckWeightedAgainstExpanded(const Matrix& data, size_t min_cluster_size,
                                  uint64_t seed) {
  const std::vector<uint32_t> copies =
      RandomCopies(data, min_cluster_size, seed);
  std::vector<uint32_t> first;
  const Matrix expanded = Expand(data, copies, &first);
  const std::vector<double> expanded_core =
      ReferenceCoreDistances(expanded, min_cluster_size);
  std::vector<double> core;
  for (uint32_t row : first) core.push_back(expanded_core[row]);

  std::vector<internal::MstEdge> edges;
  for (size_t i = 0; i < data.rows(); ++i) {
    for (uint32_t c = 1; c < copies[i]; ++c) {
      edges.push_back({core[i], first[i], first[i] + c});
    }
  }
  for (const internal::MstEdge& edge : ReferenceMst(data, core)) {
    edges.push_back({edge.weight, first[edge.a], first[edge.b]});
  }
  const HdbscanResult want =
      internal::ClustersFromMst(edges, expanded.rows(), min_cluster_size);

  HdbscanOptions options;
  options.min_cluster_size = min_cluster_size;
  ThreadPool pool(4);
  size_t rows_in_clusters = 0;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto got = Hdbscan(data, options, p, copies);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->labels.size(), data.rows());
    for (size_t i = 0; i < data.rows(); ++i) {
      for (uint32_t c = 0; c < copies[i]; ++c) {
        ASSERT_EQ(got->labels[i], want.labels[first[i] + c])
            << "row " << i << " copy " << c;
      }
    }
    ASSERT_EQ(got->clusters.size(), want.clusters.size());
    rows_in_clusters = 0;
    for (size_t c = 0; c < want.clusters.size(); ++c) {
      std::vector<size_t> members;
      for (size_t row : want.clusters[c].members) {
        const size_t i = static_cast<size_t>(
            std::upper_bound(first.begin(), first.end(), row) - first.begin() -
            1);
        if (members.empty() || members.back() != i) members.push_back(i);
      }
      EXPECT_EQ(got->clusters[c].members, members) << "cluster " << c;
      // A row's copies add to a stability once, not once each, so the sums
      // round differently.
      const double stability = want.clusters[c].stability;
      EXPECT_NEAR(got->clusters[c].stability, stability, 1e-9 * stability)
          << "cluster " << c;
      rows_in_clusters += members.size();
    }
  }
  // The inputs are not all noise, so the labels say something.
  EXPECT_GT(want.num_clusters(), 1u);
  EXPECT_GT(rows_in_clusters, 0u);
}

TEST(HdbscanTest, MedoidCountsCopies) {
  // One cluster on a line at 0, 1, 2, 3 and 10. Once, 2 is the medoid
  // (total distance 12); with five copies of 10, 10 is (34 against 41 for
  // 3), as in the expanded rows.
  Matrix data(5, 1);
  const float xs[] = {0.f, 1.f, 2.f, 3.f, 10.f};
  for (size_t i = 0; i < 5; ++i) data.At(i, 0) = xs[i];
  HdbscanResult result;
  result.labels.assign(5, 0);
  result.clusters.push_back({{0, 1, 2, 3, 4}, 1.0});
  EXPECT_EQ(ComputeMedoids(data, result), std::vector<size_t>{2});
  const std::vector<uint32_t> copies = {1, 1, 1, 1, 5};
  EXPECT_EQ(ComputeMedoids(data, result, copies), std::vector<size_t>{4});
  std::vector<uint32_t> first;
  const Matrix expanded = Expand(data, copies, &first);
  HdbscanResult expanded_result;
  expanded_result.labels.assign(expanded.rows(), 0);
  expanded_result.clusters.emplace_back();
  for (size_t r = 0; r < expanded.rows(); ++r) {
    expanded_result.clusters[0].members.push_back(r);
  }
  EXPECT_EQ(ComputeMedoids(expanded, expanded_result),
            std::vector<size_t>{first[4]});
}

TEST(HdbscanReferenceTest, WeightedMatchesExpandedCopies) {
  CheckWeightedAgainstExpanded(DoubledLattice(8), 8, 51);
  CheckWeightedAgainstExpanded(IntegerGrid(200, 5, 4, 52), 8, 53);
  CheckWeightedAgainstExpanded(IntegerGrid(150, 3, 3, 54), 5, 55);
  CheckWeightedAgainstExpanded(IntegerGrid(128, 2, 6, 56), 12, 57);
  CheckWeightedAgainstExpanded(MakeBlobs(4, 40, 5, 0.4, 58), 10, 59);
  Matrix snapped = MakeBlobs(3, 50, 4, 2.0, 60);
  for (auto& x : snapped.data()) x = std::round(x);
  CheckWeightedAgainstExpanded(snapped, 8, 61);
}

TEST(HdbscanTest, CoreDistancesMatchFullScan) {
  // The sweep stops where the first coordinate alone rules a point out, so
  // pin it on the inputs where that order says least: copies, a constant or
  // tied first coordinate, the smallest n, and k at or past n - 1.
  std::vector<std::pair<Matrix, std::vector<size_t>>> cases;
  Matrix copies = IntegerGrid(60, 3, 5, 31);
  for (size_t r = 0; r < 10; ++r) {
    std::copy(copies.Row(0), copies.Row(0) + 3, copies.Row(5 * r + 1));
  }
  cases.push_back({copies, {1, 4, 9, 12}});
  Matrix flat_first = MakeBlobs(3, 40, 4, 0.5, 32);
  for (size_t r = 0; r < flat_first.rows(); ++r) flat_first.At(r, 0) = 7.f;
  cases.push_back({flat_first, {1, 8}});
  cases.push_back({IntegerGrid(200, 3, 3, 33), {1, 5, 16}});
  Matrix two(2, 2);
  two.At(1, 0) = 3.f;
  two.At(1, 1) = -1.f;
  cases.push_back({two, {1, 4}});
  cases.push_back({MakeBlobs(2, 3, 2, 1.0, 34), {5, 6, 40}});
  cases.push_back({MakeBlobs(4, 60, 5, 0.4, 35), {3, 10}});
  // A difference that rounds down. Point 0's x-gap to point 2 is
  // 1.4 + 2^-24 (1 - 2^-16) exactly, but the kernel's float difference is
  // 1.4f, so their distance is fl(1.4f^2) = 0x1.f5c28ep+0. Point 1 is nearer
  // in x (gap 0) and one ulp farther: 0x1.f5c29p+0, below the exact gap^2
  // 0x1.f5c2910ap+0. A sweep that trusts the exact gap stops before point 2.
  Matrix rounding(3, 3);
  rounding.At(0, 0) = 1.4f;
  rounding.At(1, 0) = 1.4f;
  rounding.At(1, 1) = 1.4f;
  rounding.At(1, 2) = 0x1.6a09e6p-12f;
  rounding.At(2, 0) = -0x1.fffep-25f;
  cases.push_back({rounding, {1}});

  ThreadPool pool(3);
  for (size_t c = 0; c < cases.size(); ++c) {
    for (size_t k : cases[c].second) {
      SCOPED_TRACE("case " + std::to_string(c) + ", k = " + std::to_string(k));
      const Matrix& data = cases[c].first;
      const std::vector<double> want = ReferenceCoreDistances(data, k);
      ExpectSameBits(want, internal::CoreDistances(data, k, nullptr));
      ExpectSameBits(want, internal::CoreDistances(data, k, &pool));
    }
  }
}

// ---------- Medoids ----------

TEST(MedoidsTest, MedoidIsMemberAndCentral) {
  std::vector<int32_t> truth;
  Matrix data = MakeBlobs(3, 40, 4, 0.5, 17, &truth);
  HdbscanOptions options;
  options.min_cluster_size = 10;
  auto result = Hdbscan(data, options).MoveValue();
  ASSERT_EQ(result.num_clusters(), 3u);
  auto medoids = ComputeMedoids(data, result);
  ASSERT_EQ(medoids.size(), 3u);
  for (size_t c = 0; c < medoids.size(); ++c) {
    const auto& members = result.clusters[c].members;
    // Medoid must be a member of its own cluster.
    EXPECT_TRUE(std::find(members.begin(), members.end(), medoids[c]) !=
                members.end());
    // No member has a smaller total distance.
    auto total_dist = [&](size_t candidate) {
      double total = 0;
      for (size_t m : members) {
        total += std::sqrt(static_cast<double>(
            vecmath::SquaredL2(data.Row(candidate), data.Row(m), data.cols())));
      }
      return total;
    };
    double medoid_total = total_dist(medoids[c]);
    for (size_t m : members) {
      EXPECT_GE(total_dist(m) + 1e-6, medoid_total);
    }
  }
}

}  // namespace
}  // namespace mira::cluster
