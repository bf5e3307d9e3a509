// Tests for the extension features: multi-relation datasets (§3's
// generalization), dataset-level ranking aggregation, TREC-format run/qrels
// I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "discovery/dataset_ranking.h"
#include "ir/trec_io.h"
#include "table/relation.h"

namespace mira {
namespace {

table::Relation MakeRelation(const std::string& name) {
  table::Relation r;
  r.name = name;
  r.schema = {"a"};
  r.AddRow({"x"}).Abort("");
  return r;
}

// ---------- Multi-relation datasets ----------

TEST(FederationDatasetTest, AssignAndQuery) {
  table::Federation federation;
  auto r0 = federation.AddRelation(MakeRelation("r0"));
  auto r1 = federation.AddRelation(MakeRelation("r1"));
  auto r2 = federation.AddRelation(MakeRelation("r2"));
  table::DatasetId health = federation.AddDataset("health");
  ASSERT_TRUE(federation.AssignToDataset(r0, health).ok());
  ASSERT_TRUE(federation.AssignToDataset(r2, health).ok());
  EXPECT_EQ(federation.DatasetOf(r0), health);
  EXPECT_EQ(federation.DatasetOf(r1), table::kNoDataset);
  EXPECT_EQ(federation.DatasetName(health), "health");
  EXPECT_EQ(federation.RelationsOf(health),
            (std::vector<table::RelationId>{r0, r2}));
  EXPECT_EQ(federation.num_datasets(), 1u);
}

TEST(FederationDatasetTest, AssignValidatesIds) {
  table::Federation federation;
  federation.AddRelation(MakeRelation("r0"));
  table::DatasetId d = federation.AddDataset("d");
  EXPECT_TRUE(federation.AssignToDataset(99, d).IsInvalidArgument());
  EXPECT_TRUE(federation.AssignToDataset(0, 99).IsInvalidArgument());
}

TEST(FederationDatasetTest, SubsetPreservesAssignments) {
  table::Federation federation;
  table::DatasetId d = federation.AddDataset("d");
  for (int i = 0; i < 20; ++i) {
    auto id = federation.AddRelation(MakeRelation("r" + std::to_string(i)));
    if (i % 2 == 0) federation.AssignToDataset(id, d).Abort("");
  }
  std::vector<table::RelationId> kept;
  table::Federation subset = federation.Subset(0.5, 3, &kept);
  for (size_t v = 0; v < kept.size(); ++v) {
    EXPECT_EQ(subset.DatasetOf(v), federation.DatasetOf(kept[v]));
  }
}

// ---------- Dataset-level ranking ----------

discovery::Ranking MakeRanking() {
  return {{0, 0.9f}, {1, 0.8f}, {2, 0.6f}, {3, 0.5f}};
}

TEST(DatasetRankingTest, SingletonsPassThrough) {
  table::Federation federation;
  for (int i = 0; i < 4; ++i) {
    federation.AddRelation(MakeRelation("r" + std::to_string(i)));
  }
  discovery::DiscoveryOptions options;
  auto hits =
      discovery::AggregateByDataset(MakeRanking(), federation, options);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_TRUE(hits[0].is_singleton());
  EXPECT_EQ(hits[0].singleton_relation, 0u);
  EXPECT_FLOAT_EQ(hits[0].score, 0.9f);
}

TEST(DatasetRankingTest, MaxAggregationMergesMembers) {
  table::Federation federation;
  for (int i = 0; i < 4; ++i) {
    federation.AddRelation(MakeRelation("r" + std::to_string(i)));
  }
  table::DatasetId d = federation.AddDataset("bundle");
  federation.AssignToDataset(1, d).Abort("");
  federation.AssignToDataset(2, d).Abort("");

  discovery::DiscoveryOptions options;
  auto hits = discovery::AggregateByDataset(MakeRanking(), federation, options,
                                            discovery::DatasetAggregation::kMax);
  // 0 (0.9) > bundle (max of 0.8, 0.6) > 3 (0.5).
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_TRUE(hits[0].is_singleton());
  EXPECT_EQ(hits[1].dataset, d);
  EXPECT_FLOAT_EQ(hits[1].score, 0.8f);
  ASSERT_EQ(hits[1].members.size(), 2u);
  EXPECT_EQ(hits[1].members[0].relation, 1u);  // best member first
  EXPECT_EQ(hits[2].singleton_relation, 3u);
}

TEST(DatasetRankingTest, MeanAndSumAggregation) {
  table::Federation federation;
  for (int i = 0; i < 4; ++i) {
    federation.AddRelation(MakeRelation("r" + std::to_string(i)));
  }
  table::DatasetId d = federation.AddDataset("bundle");
  federation.AssignToDataset(1, d).Abort("");
  federation.AssignToDataset(2, d).Abort("");
  discovery::DiscoveryOptions options;
  auto mean = discovery::AggregateByDataset(
      MakeRanking(), federation, options, discovery::DatasetAggregation::kMean);
  auto sum = discovery::AggregateByDataset(
      MakeRanking(), federation, options, discovery::DatasetAggregation::kSum);
  auto find_bundle = [&](const discovery::DatasetRanking& hits) {
    for (const auto& hit : hits) {
      if (hit.dataset == d) return hit.score;
    }
    return -1.f;
  };
  EXPECT_NEAR(find_bundle(mean), 0.7f, 1e-5);
  EXPECT_NEAR(find_bundle(sum), 1.4f, 1e-5);
}

TEST(DatasetRankingTest, ThresholdAndTopKApply) {
  table::Federation federation;
  for (int i = 0; i < 4; ++i) {
    federation.AddRelation(MakeRelation("r" + std::to_string(i)));
  }
  discovery::DiscoveryOptions options;
  options.top_k = 2;
  auto hits = discovery::AggregateByDataset(MakeRanking(), federation, options);
  EXPECT_EQ(hits.size(), 2u);
  options.top_k = 10;
  options.threshold = 0.7f;
  hits = discovery::AggregateByDataset(MakeRanking(), federation, options);
  EXPECT_EQ(hits.size(), 2u);  // only 0.9 and 0.8 survive
}

// ---------- TREC I/O ----------

TEST(TrecIoTest, RunFileRoundTrip) {
  auto path = std::filesystem::temp_directory_path() / "mira_run_test.txt";
  ir::ScoredRun run;
  run.rankings[3] = {{10, 0.9}, {11, 0.7}};
  run.rankings[1] = {{20, 1.5}};
  ASSERT_TRUE(ir::WriteRunFile(path.string(), run, "mira-cts").ok());
  auto loaded = ir::ReadRunFile(path.string()).MoveValue();
  ASSERT_EQ(loaded.rankings.size(), 2u);
  ASSERT_EQ(loaded.rankings[3].size(), 2u);
  EXPECT_EQ(loaded.rankings[3][0].doc, 10u);
  EXPECT_DOUBLE_EQ(loaded.rankings[3][0].score, 0.9);
  EXPECT_EQ(loaded.rankings[1][0].doc, 20u);
  std::remove(path.c_str());
}

TEST(TrecIoTest, ScoredRunToRun) {
  ir::ScoredRun run;
  run.rankings[0] = {{5, 0.5}, {6, 0.4}};
  ir::Run plain = run.ToRun();
  EXPECT_EQ(plain[0], (std::vector<ir::DocId>{5, 6}));
}

TEST(TrecIoTest, QrelsRoundTrip) {
  auto path = std::filesystem::temp_directory_path() / "mira_qrels_test.txt";
  ir::Qrels qrels;
  qrels.Add(0, 7, 2);
  qrels.Add(0, 8, 1);
  qrels.Add(2, 7, 0);
  ASSERT_TRUE(ir::WriteQrelsFile(path.string(), qrels).ok());
  auto loaded = ir::ReadQrelsFile(path.string()).MoveValue();
  EXPECT_EQ(loaded.Grade(0, 7), 2);
  EXPECT_EQ(loaded.Grade(0, 8), 1);
  EXPECT_EQ(loaded.Grade(2, 7), 0);
  EXPECT_EQ(loaded.num_pairs(), 3u);
  std::remove(path.c_str());
}

TEST(TrecIoTest, MalformedRunRejected) {
  auto path = std::filesystem::temp_directory_path() / "mira_bad_run.txt";
  {
    std::ofstream out(path);
    out << "1 Q0 10\n";  // missing columns
  }
  EXPECT_TRUE(ir::ReadRunFile(path.string()).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(TrecIoTest, MissingFilesRejected) {
  EXPECT_TRUE(ir::ReadRunFile("/no/such/run").status().IsIoError());
  EXPECT_TRUE(ir::ReadQrelsFile("/no/such/qrels").status().IsIoError());
}

TEST(TrecIoTest, EvaluateFromRoundTrippedFiles) {
  auto run_path = std::filesystem::temp_directory_path() / "mira_rt_run.txt";
  auto qrels_path = std::filesystem::temp_directory_path() / "mira_rt_qrels.txt";
  ir::Qrels qrels;
  qrels.Add(0, 1, 2);
  ir::ScoredRun run;
  run.rankings[0] = {{1, 0.8}};
  ASSERT_TRUE(ir::WriteRunFile(run_path.string(), run, "t").ok());
  ASSERT_TRUE(ir::WriteQrelsFile(qrels_path.string(), qrels).ok());
  auto loaded_run = ir::ReadRunFile(run_path.string()).MoveValue();
  auto loaded_qrels = ir::ReadQrelsFile(qrels_path.string()).MoveValue();
  auto result = ir::Evaluate(loaded_qrels, loaded_run.ToRun());
  EXPECT_DOUBLE_EQ(result.map, 1.0);
  std::remove(run_path.c_str());
  std::remove(qrels_path.c_str());
}

}  // namespace
}  // namespace mira
