// Unit tests for src/ir: qrels and the MAP/MRR/NDCG metrics, validated
// against hand-computed examples.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ir/metrics.h"
#include "ir/significance.h"

namespace mira::ir {
namespace {

Qrels MakeSimpleQrels() {
  Qrels qrels;
  qrels.Add(0, 10, 2);
  qrels.Add(0, 11, 1);
  qrels.Add(0, 12, 0);
  return qrels;
}

TEST(QrelsTest, GradeLookup) {
  Qrels qrels = MakeSimpleQrels();
  EXPECT_EQ(qrels.Grade(0, 10), 2);
  EXPECT_EQ(qrels.Grade(0, 11), 1);
  EXPECT_EQ(qrels.Grade(0, 12), 0);
  EXPECT_EQ(qrels.Grade(0, 999), 0);  // unjudged
  EXPECT_EQ(qrels.Grade(9, 10), 0);   // unknown query
  EXPECT_EQ(qrels.num_pairs(), 3u);
}

TEST(QrelsTest, AddOverwrites) {
  Qrels qrels;
  qrels.Add(0, 5, 1);
  qrels.Add(0, 5, 2);
  EXPECT_EQ(qrels.Grade(0, 5), 2);
  EXPECT_EQ(qrels.num_pairs(), 1u);
}

TEST(QrelsTest, NumRelevantCountsGradeAtLeastOne) {
  Qrels qrels = MakeSimpleQrels();
  EXPECT_EQ(qrels.NumRelevant(0), 2u);
  EXPECT_EQ(qrels.NumRelevant(7), 0u);
}

TEST(QrelsTest, QueriesSorted) {
  Qrels qrels;
  qrels.Add(5, 1, 1);
  qrels.Add(2, 1, 1);
  qrels.Add(9, 1, 1);
  EXPECT_EQ(qrels.Queries(), (std::vector<QueryId>{2, 5, 9}));
}

// ---------- Reciprocal rank ----------

TEST(MetricsTest, ReciprocalRankFirstPosition) {
  Qrels qrels = MakeSimpleQrels();
  EXPECT_DOUBLE_EQ(ReciprocalRank({10, 12, 11}, qrels, 0), 1.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank({12, 10}, qrels, 0), 0.5);
  EXPECT_DOUBLE_EQ(ReciprocalRank({12, 99, 11}, qrels, 0), 1.0 / 3);
  EXPECT_DOUBLE_EQ(ReciprocalRank({12, 99}, qrels, 0), 0.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank({}, qrels, 0), 0.0);
}

// ---------- Average precision ----------

TEST(MetricsTest, AveragePrecisionHandComputed) {
  // Relevant docs: 10 and 11. Ranking: [10, 99, 11]:
  // P@1 = 1/1 (hit), P@3 = 2/3 (hit) -> AP = (1 + 2/3) / 2 = 5/6.
  Qrels qrels = MakeSimpleQrels();
  EXPECT_NEAR(AveragePrecision({10, 99, 11}, qrels, 0), 5.0 / 6, 1e-9);
}

TEST(MetricsTest, AveragePrecisionNormalizesByAllRelevant) {
  // Only one of two relevant docs retrieved: AP = (1/1) / 2 = 0.5.
  Qrels qrels = MakeSimpleQrels();
  EXPECT_DOUBLE_EQ(AveragePrecision({10}, qrels, 0), 0.5);
}

TEST(MetricsTest, AveragePrecisionPerfectAndEmpty) {
  Qrels qrels = MakeSimpleQrels();
  EXPECT_DOUBLE_EQ(AveragePrecision({10, 11}, qrels, 0), 1.0);
  EXPECT_DOUBLE_EQ(AveragePrecision({}, qrels, 0), 0.0);
  EXPECT_DOUBLE_EQ(AveragePrecision({12, 99}, qrels, 0), 0.0);
}

TEST(MetricsTest, AveragePrecisionNoRelevantIsZero) {
  Qrels qrels;
  qrels.Add(0, 1, 0);
  EXPECT_DOUBLE_EQ(AveragePrecision({1}, qrels, 0), 0.0);
}

// ---------- NDCG ----------

TEST(MetricsTest, NdcgHandComputed) {
  // Grades: doc10=2, doc11=1. Ranking [11, 10]:
  // DCG  = (2^1-1)/log2(2) + (2^2-1)/log2(3) = 1 + 3/1.58496 = 2.8928
  // IDCG = (2^2-1)/log2(2) + (2^1-1)/log2(3) = 3 + 0.63093 = 3.6309
  Qrels qrels = MakeSimpleQrels();
  double dcg = 1.0 + 3.0 / std::log2(3.0);
  double idcg = 3.0 + 1.0 / std::log2(3.0);
  EXPECT_NEAR(NdcgAt({11, 10}, qrels, 0, 5), dcg / idcg, 1e-9);
}

TEST(MetricsTest, NdcgPerfectRankingIsOne) {
  Qrels qrels = MakeSimpleQrels();
  EXPECT_NEAR(NdcgAt({10, 11}, qrels, 0, 5), 1.0, 1e-9);
}

TEST(MetricsTest, NdcgCutoffTruncates) {
  Qrels qrels = MakeSimpleQrels();
  // With k=1, only the first position counts.
  EXPECT_NEAR(NdcgAt({11, 10}, qrels, 0, 1), 1.0 / 3.0, 1e-9);
}

TEST(MetricsTest, NdcgZeroWithoutRelevant) {
  Qrels qrels;
  qrels.Add(0, 1, 0);
  EXPECT_DOUBLE_EQ(NdcgAt({1, 2}, qrels, 0, 5), 0.0);
}

TEST(MetricsTest, GradedGainRewardsFullyRelevantHigher) {
  Qrels qrels;
  qrels.Add(0, 1, 2);
  qrels.Add(0, 2, 1);
  double with_grade2_first = NdcgAt({1, 2}, qrels, 0, 5);
  double with_grade1_first = NdcgAt({2, 1}, qrels, 0, 5);
  EXPECT_GT(with_grade2_first, with_grade1_first);
}

// ---------- Aggregate evaluation ----------

TEST(MetricsTest, EvaluateAveragesOverQueries) {
  Qrels qrels;
  qrels.Add(0, 1, 2);
  qrels.Add(1, 2, 1);
  std::unordered_map<QueryId, std::vector<DocId>> run;
  run[0] = {1};       // perfect
  run[1] = {99, 2};   // relevant at rank 2
  EvalResult result = Evaluate(qrels, run);
  EXPECT_EQ(result.num_queries, 2u);
  EXPECT_DOUBLE_EQ(result.mrr, (1.0 + 0.5) / 2);
  EXPECT_DOUBLE_EQ(result.map, (1.0 + 0.5) / 2);
  EXPECT_GT(result.ndcg.at(5), 0.0);
  EXPECT_LE(result.ndcg.at(5), 1.0);
}

TEST(MetricsTest, MissingQueryInRunScoresZero) {
  Qrels qrels;
  qrels.Add(0, 1, 1);
  qrels.Add(1, 1, 1);
  std::unordered_map<QueryId, std::vector<DocId>> run;
  run[0] = {1};
  EvalResult result = Evaluate(qrels, run);
  EXPECT_DOUBLE_EQ(result.map, 0.5);
  EXPECT_DOUBLE_EQ(result.mrr, 0.5);
}

TEST(MetricsTest, EvaluateCustomCutoffs) {
  Qrels qrels;
  qrels.Add(0, 1, 1);
  std::unordered_map<QueryId, std::vector<DocId>> run;
  run[0] = {1};
  EvalResult result = Evaluate(qrels, run, {3, 7});
  EXPECT_EQ(result.ndcg.size(), 2u);
  EXPECT_TRUE(result.ndcg.count(3));
  EXPECT_TRUE(result.ndcg.count(7));
}

TEST(MetricsTest, EmptyQrelsEvaluatesToZeroQueries) {
  Qrels qrels;
  std::unordered_map<QueryId, std::vector<DocId>> run;
  EvalResult result = Evaluate(qrels, run);
  EXPECT_EQ(result.num_queries, 0u);
  EXPECT_DOUBLE_EQ(result.map, 0.0);
  // Every cutoff still has its entry: the quality tables read them with
  // at() for a partition where no evaluation query has a positive.
  ASSERT_EQ(result.ndcg.size(), 4u);
  for (const auto& [k, value] : result.ndcg) EXPECT_DOUBLE_EQ(value, 0.0);
}

// Property: metrics are bounded in [0, 1] on random rankings.
TEST(MetricsTest, BoundsOnRandomData) {
  Qrels qrels;
  for (DocId d = 0; d < 20; ++d) qrels.Add(0, d, d % 3);
  std::vector<DocId> ranking;
  for (DocId d = 20; d-- > 0;) ranking.push_back(d);
  double map = AveragePrecision(ranking, qrels, 0);
  double mrr = ReciprocalRank(ranking, qrels, 0);
  double ndcg = NdcgAt(ranking, qrels, 0, 10);
  for (double v : {map, mrr, ndcg}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

// ---------- Paired randomization significance test ----------

TEST(SignificanceTest, IdenticalRunsNotSignificant) {
  Qrels qrels;
  for (QueryId q = 0; q < 10; ++q) qrels.Add(q, q, 1);
  std::unordered_map<QueryId, std::vector<DocId>> run;
  for (QueryId q = 0; q < 10; ++q) run[q] = {q, 99};
  auto result = PairedRandomizationTest(qrels, run, run).MoveValue();
  EXPECT_DOUBLE_EQ(result.mean_difference, 0.0);
  EXPECT_EQ(result.ties, 10u);
  EXPECT_FALSE(result.Significant());
  EXPECT_NEAR(result.p_value, 1.0, 1e-9);
}

TEST(SignificanceTest, DominantRunIsSignificant) {
  // A ranks the relevant doc first on every query; B never retrieves it.
  Qrels qrels;
  std::unordered_map<QueryId, std::vector<DocId>> a, b;
  for (QueryId q = 0; q < 20; ++q) {
    qrels.Add(q, q, 1);
    a[q] = {q};
    b[q] = {1000 + q};
  }
  auto result = PairedRandomizationTest(qrels, a, b).MoveValue();
  EXPECT_NEAR(result.mean_difference, 1.0, 1e-9);
  EXPECT_EQ(result.wins, 20u);
  EXPECT_EQ(result.losses, 0u);
  EXPECT_TRUE(result.Significant(0.01));
}

TEST(SignificanceTest, NoisySmallDifferenceNotSignificant) {
  // One win, one loss of equal size: mean difference zero-ish.
  Qrels qrels;
  std::unordered_map<QueryId, std::vector<DocId>> a, b;
  qrels.Add(0, 0, 1);
  qrels.Add(1, 1, 1);
  a[0] = {0};
  b[0] = {9};
  a[1] = {9};
  b[1] = {1};
  auto result = PairedRandomizationTest(qrels, a, b).MoveValue();
  EXPECT_NEAR(result.mean_difference, 0.0, 1e-9);
  EXPECT_FALSE(result.Significant());
}

TEST(SignificanceTest, EmptyQrelsRejected) {
  Qrels qrels;
  std::unordered_map<QueryId, std::vector<DocId>> run;
  EXPECT_TRUE(PairedRandomizationTest(qrels, run, run)
                  .status()
                  .IsInvalidArgument());
}

TEST(SignificanceTest, DeterministicGivenSeed) {
  Qrels qrels;
  std::unordered_map<QueryId, std::vector<DocId>> a, b;
  Rng setup(3);
  for (QueryId q = 0; q < 15; ++q) {
    qrels.Add(q, q, 1);
    a[q] = setup.NextBernoulli(0.7) ? std::vector<DocId>{q}
                                    : std::vector<DocId>{900 + q};
    b[q] = setup.NextBernoulli(0.4) ? std::vector<DocId>{q}
                                    : std::vector<DocId>{900 + q};
  }
  auto r1 = PairedRandomizationTest(qrels, a, b).MoveValue();
  auto r2 = PairedRandomizationTest(qrels, a, b).MoveValue();
  EXPECT_DOUBLE_EQ(r1.p_value, r2.p_value);
}

TEST(SignificanceTest, MetricChoiceMatters) {
  // Same runs scored under different per-query metrics still work.
  Qrels qrels;
  std::unordered_map<QueryId, std::vector<DocId>> a, b;
  for (QueryId q = 0; q < 8; ++q) {
    qrels.Add(q, q, 2);
    a[q] = {q};
    b[q] = {777, q};
  }
  for (auto metric : {PerQueryMetric::kAveragePrecision,
                      PerQueryMetric::kReciprocalRank,
                      PerQueryMetric::kNdcg10}) {
    auto result =
        PairedRandomizationTest(qrels, a, b, metric).MoveValue();
    EXPECT_GT(result.mean_difference, 0.0);
  }
}

}  // namespace
}  // namespace mira::ir
