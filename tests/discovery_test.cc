// Tests for src/discovery: corpus embeddings, ExS/ANNS/CTS, the engine, and
// the paper's motivating example (Figure 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/deadline.h"
#include "common/rng.h"

#include "datagen/workload.h"
#include "discovery/anns_search.h"
#include "discovery/cts_search.h"
#include "discovery/engine.h"
#include "discovery/exhaustive_search.h"
#include "discovery/match.h"
#include "discovery/types.h"
#include "index/hnsw_index.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira::discovery {
namespace {

using datagen::ConceptBankOptions;
using datagen::Workload;
using datagen::WorkloadOptions;

// The Figure 1 federation: WHO / CDC / ECDC COVID vaccine tables plus two
// unrelated tables; only ECDC contains the literal keyword "COVID".
struct CovidFixture {
  table::Federation federation;
  std::shared_ptr<embed::Lexicon> lexicon;
  table::RelationId who, cdc, ecdc, football, weather;
};

CovidFixture MakeCovidFixture() {
  CovidFixture fx;
  fx.lexicon = std::make_shared<embed::Lexicon>();
  int32_t covid = fx.lexicon->AddTopic("covid");
  int32_t vaccines = fx.lexicon->AddAspect(covid, "vaccines");
  int32_t disease = fx.lexicon->AddConcept(covid, "covid_disease", vaccines);
  fx.lexicon->AddSurface(disease, "covid");
  fx.lexicon->AddSurface(disease, "covid-19");
  int32_t pfizer = fx.lexicon->AddConcept(covid, "pfizer", vaccines);
  fx.lexicon->AddSurface(pfizer, "comirnaty");
  fx.lexicon->AddSurface(pfizer, "pfizer-biontech");
  fx.lexicon->AddSurface(pfizer, "pfizer");
  fx.lexicon->AddSurface(pfizer, "mrna");
  int32_t az = fx.lexicon->AddConcept(covid, "astrazeneca", vaccines);
  fx.lexicon->AddSurface(az, "vaxzevria");
  fx.lexicon->AddSurface(az, "astrazeneca");
  fx.lexicon->AddSurface(az, "janssen");
  int32_t sinovac = fx.lexicon->AddConcept(covid, "sinovac", vaccines);
  fx.lexicon->AddSurface(sinovac, "coronavac");
  fx.lexicon->AddSurface(sinovac, "sinovac");
  int32_t moderna = fx.lexicon->AddConcept(covid, "moderna", vaccines);
  fx.lexicon->AddSurface(moderna, "moderna");
  fx.lexicon->AddSurface(moderna, "spikevax");
  int32_t novavax = fx.lexicon->AddConcept(covid, "novavax", vaccines);
  fx.lexicon->AddSurface(novavax, "novavax");
  fx.lexicon->AddSurface(novavax, "nuvaxovid");

  table::Relation who;
  who.name = "WHO";
  who.schema = {"Region", "Date", "Vaccine", "Dosage"};
  who.AddRow({"North America", "2021-01-01", "Comirnaty", "First"}).Abort("");
  who.AddRow({"Europe", "2021-02-01", "Vaxzevria", "Second"}).Abort("");
  who.AddRow({"Asia", "2021-03-01", "CoronaVac", "First"}).Abort("");
  fx.who = fx.federation.AddRelation(std::move(who));

  // Figure 1's CDC table: Immunogen and Manufacturer columns carry vaccine
  // vocabulary even though "COVID" never appears.
  table::Relation cdc;
  cdc.name = "CDC";
  cdc.schema = {"State", "Date", "Immunogen", "Manufacturer"};
  cdc.AddRow({"California", "2021-01-01", "mRNA", "Moderna"}).Abort("");
  cdc.AddRow({"Texas", "2021-02-01", "Vector Virus", "Janssen"}).Abort("");
  cdc.AddRow({"Florida", "2021-03-01", "mRNA", "Pfizer"}).Abort("");
  cdc.AddRow({"New York", "2021-04-01", "Protein Subunit", "Novavax"}).Abort("");
  fx.cdc = fx.federation.AddRelation(std::move(cdc));

  table::Relation ecdc;
  ecdc.name = "ECDC";
  ecdc.schema = {"Country", "Date", "Trade Name", "Disease"};
  ecdc.AddRow({"Germany", "2021-01-01", "Pfizer-BioNTech", "COVID-19"}).Abort("");
  ecdc.AddRow({"France", "2021-02-01", "AstraZeneca", "COVID-19"}).Abort("");
  ecdc.AddRow({"Spain", "2021-03-01", "Moderna", "COVID-19"}).Abort("");
  ecdc.AddRow({"Italy", "2021-04-01", "Pfizer-BioNTech", "COVID-19"}).Abort("");
  fx.ecdc = fx.federation.AddRelation(std::move(ecdc));

  table::Relation football;
  football.name = "Football";
  football.schema = {"Team", "Points"};
  football.AddRow({"Harriers", "42"}).Abort("");
  football.AddRow({"Rovers", "38"}).Abort("");
  fx.football = fx.federation.AddRelation(std::move(football));

  table::Relation weather;
  weather.name = "Weather";
  weather.schema = {"City", "Temperature"};
  weather.AddRow({"Oslo", "-3"}).Abort("");
  weather.AddRow({"Cairo", "31"}).Abort("");
  fx.weather = fx.federation.AddRelation(std::move(weather));
  return fx;
}

EngineOptions FastEngineOptions() {
  EngineOptions options;
  // 256 dims keep random-direction noise (~1/sqrt(dim)) well below the
  // concept-level signal even for the tiny Figure 1 federation.
  options.encoder.dim = 256;
  options.cts.umap.n_epochs = 60;
  options.embed_threads = 1;
  return options;
}

// Small generated workload shared by the algorithm tests.
Workload SmallWorkload() {
  WorkloadOptions options = datagen::WikiTablesWorkload(150);
  options.bank.num_topics = 8;
  options.bank.aspects_per_topic = 3;
  options.queries.per_class = 6;
  return Workload::Generate(options);
}

// ---------- CorpusEmbeddings ----------

// The cells grouped by the exact bytes of their vectors: one entry per
// distinct vector, in first-cell order, each listing its cells ascending.
std::vector<std::vector<uint32_t>> CellsByDistinctRow(
    const CorpusEmbeddings& corpus) {
  std::map<std::string, size_t> group_of;
  std::vector<std::vector<uint32_t>> groups;
  const size_t row_bytes = corpus.dim() * sizeof(float);
  for (uint32_t i = 0; i < corpus.num_cells(); ++i) {
    std::string key(
        reinterpret_cast<const char*>(corpus.CellVectors().Row(i)),
        row_bytes);
    auto [it, inserted] = group_of.emplace(std::move(key), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

TEST(CorpusEmbeddingsTest, OneRowPerNonEmptyCell) {
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 64;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  auto corpus = CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();
  EXPECT_EQ(corpus.num_cells(), fx.federation.TotalCells());
  EXPECT_EQ(corpus.dim(), 64u);
  EXPECT_EQ(corpus.num_relations, 5u);
  uint32_t total = 0;
  for (uint32_t c : corpus.cells_per_relation) total += c;
  EXPECT_EQ(total, corpus.num_cells());
}

TEST(CorpusEmbeddingsTest, RowsAreTheDistinctCellVectors) {
  // The store keeps one row per distinct cell vector: two cells share a row
  // iff their per-cell encodings are the same bytes, and rows are numbered
  // in first-cell order. The edge cases of the batch build (repeats, a
  // punctuation-only cell, numbers, stopword-only cells, an empty cell)
  // plus case variants: "Foo" and "foo" are distinct texts that tokenize
  // alike, so a store grouping by text alone fails here.
  CovidFixture fx = MakeCovidFixture();
  table::Relation edge;
  edge.name = "edge_cases";
  edge.schema = {"a", "b", "c"};
  const std::vector<std::vector<std::string>> rows = {
      {"Foo", "1995", "Moderna"},
      {"foo", "--- !!", "moderna"},
      {"", "the of and", "FOO"},
      {"--- !!", "1995", "Sales by Region"},
      {"sales by region", "a an the", "3.5e9"},
  };
  for (const auto& row : rows) ASSERT_TRUE(edge.AddRow(row).ok());
  fx.federation.AddRelation(edge);
  fx.federation.AddRelation(std::move(edge));
  embed::EncoderOptions opts;
  opts.dim = 32;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  const auto corpus =
      CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();
  ASSERT_EQ(corpus.cell_rows.size(), corpus.num_cells());

  const embed::SemanticEncoder fresh(opts, fx.lexicon);
  const size_t row_bytes = corpus.dim() * sizeof(float);
  std::map<std::string, uint32_t> row_of_bytes;
  std::unordered_set<std::string> texts;
  for (size_t i = 0; i < corpus.num_cells(); ++i) {
    const CellRef& ref = corpus.refs[i];
    const std::string& text =
        fx.federation.relation(ref.relation).Cell(ref.row, ref.col);
    SCOPED_TRACE(text);
    texts.insert(text);
    vecmath::Vec want = fresh.EncodeText(text);
    vecmath::NormalizeInPlace(&want);
    auto [it, inserted] = row_of_bytes.try_emplace(
        std::string(reinterpret_cast<const char*>(want.data()), row_bytes),
        static_cast<uint32_t>(row_of_bytes.size()));
    EXPECT_EQ(corpus.cell_rows[i], it->second);
    EXPECT_EQ(std::memcmp(corpus.CellVectors().Row(i), want.data(), row_bytes),
              0);
  }
  EXPECT_EQ(corpus.num_rows(), row_of_bytes.size());
  EXPECT_LT(corpus.num_rows(), texts.size());
  // The tests' byte grouping of the cells agrees: row d holds its cells.
  const auto groups = CellsByDistinctRow(corpus);
  ASSERT_EQ(groups.size(), corpus.num_rows());
  for (uint32_t d = 0; d < groups.size(); ++d) {
    for (uint32_t cell : groups[d]) EXPECT_EQ(corpus.cell_rows[cell], d);
  }
}

TEST(CorpusEmbeddingsTest, SkipsEmptyCells) {
  table::Federation federation;
  table::Relation r;
  r.name = "sparse";
  r.schema = {"a", "b"};
  r.AddRow({"x", ""}).Abort("");
  r.AddRow({"", "y"}).Abort("");
  federation.AddRelation(std::move(r));
  embed::EncoderOptions opts;
  opts.dim = 32;
  embed::SemanticEncoder encoder(opts, std::make_shared<embed::Lexicon>());
  auto corpus = CorpusEmbeddings::Build(federation, encoder).MoveValue();
  EXPECT_EQ(corpus.num_cells(), 2u);
}

TEST(CorpusEmbeddingsTest, EmptyFederationRejected) {
  table::Federation federation;
  embed::EncoderOptions opts;
  opts.dim = 32;
  embed::SemanticEncoder encoder(opts, std::make_shared<embed::Lexicon>());
  EXPECT_TRUE(CorpusEmbeddings::Build(federation, encoder)
                  .status()
                  .IsInvalidArgument());
}

TEST(CorpusEmbeddingsTest, ParallelMatchesSerial) {
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 48;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  auto serial = CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();
  ThreadPool pool(4);
  auto parallel =
      CorpusEmbeddings::Build(fx.federation, encoder, &pool).MoveValue();
  ASSERT_EQ(serial.num_cells(), parallel.num_cells());
  EXPECT_EQ(serial.rows.data(), parallel.rows.data());
  EXPECT_EQ(serial.cell_rows, parallel.cell_rows);
}

// ---------- AnnsSearcher ----------

// The small generated workload with its encoder and corpus, for searchers
// built outside an engine.
struct SearcherInputs {
  Workload workload = SmallWorkload();
  std::shared_ptr<embed::SemanticEncoder> encoder =
      std::make_shared<embed::SemanticEncoder>(FastEngineOptions().encoder,
                                               workload.bank.lexicon());
  std::shared_ptr<const CorpusEmbeddings> corpus =
      std::make_shared<CorpusEmbeddings>(
          CorpusEmbeddings::Build(workload.corpus.federation, *encoder)
              .MoveValue());
};

TEST(AnnsSearcherTest, PqSubquantizersAutoAdjustToDim) {
  // The default 16 subquantizers do not divide dim 24; Build shrinks m until
  // it does instead of failing PQ training.
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 24;
  auto encoder = std::make_shared<embed::SemanticEncoder>(opts, fx.lexicon);
  auto corpus = std::make_shared<CorpusEmbeddings>(
      CorpusEmbeddings::Build(fx.federation, *encoder).MoveValue());
  auto anns = AnnsSearcher::Build(fx.federation, corpus, encoder);
  ASSERT_TRUE(anns.ok()) << anns.status().ToString();
  // m = 12, the largest divisor of 24 not above 16: one code byte per
  // subquantizer per distinct cell vector (the fixture repeats values, so
  // there are fewer than cells), and 12 codebooks of 256 centroids of 2
  // floats.
  const size_t distinct_rows = CellsByDistinctRow(*corpus).size();
  ASSERT_LT(distinct_rows, corpus->num_cells());
  const index::MemoryStats stats = (*anns)->MemoryUsage().index;
  EXPECT_EQ(stats.codes_bytes, distinct_rows * 12);
  EXPECT_EQ(stats.codebook_bytes, 12 * 256 * 2 * sizeof(float));
  EXPECT_FALSE((*anns)->Search("covid vaccine", {}).MoveValue().empty());
}

TEST(AnnsSearcherTest, ExactSearchTakesBruteForceCells) {
  // With exact vectors and a beam as wide as the index, the HNSW probe
  // returns the nearest distinct vectors exactly. The cells ANNS takes are
  // then the brute-force top cell_candidates cells (each vector's cells in
  // ascending id), and its ranking is the per-relation mean over them. A
  // query whose cut falls on a vector scored within float noise of a
  // neighbouring vector is a tie either way, and is skipped.
  const SearcherInputs inputs;
  const CorpusEmbeddings& corpus = *inputs.corpus;
  const auto rows = CellsByDistinctRow(corpus);
  ASSERT_LT(rows.size(), corpus.num_cells());
  AnnsOptions options;
  options.use_pq = false;
  options.cell_candidates = 120;
  options.ef_search = rows.size();
  auto anns = AnnsSearcher::Build(inputs.workload.corpus.federation,
                                  inputs.corpus, inputs.encoder, options)
                  .MoveValue();

  constexpr double kTie = 1e-5;
  DiscoveryOptions search;
  search.top_k = corpus.num_relations;
  size_t checked = 0;
  for (const auto& q : inputs.workload.queries) {
    SCOPED_TRACE(q.text);
    vecmath::Vec embedding = inputs.encoder->EncodeText(q.text);
    vecmath::NormalizeInPlace(&embedding);
    // Distinct rows by exact similarity, descending; ties by first cell.
    std::vector<std::pair<double, size_t>> scored;
    for (size_t d = 0; d < rows.size(); ++d) {
      const float* row = corpus.CellVectors().Row(rows[d].front());
      double dot = 0.0;
      for (size_t j = 0; j < corpus.dim(); ++j) {
        dot += static_cast<double>(embedding[j]) * row[j];
      }
      scored.emplace_back(dot, d);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::map<table::RelationId, std::pair<double, uint32_t>> grouped;
    size_t taken = 0;
    size_t cut = 0;  // the last row any cell is taken from
    for (; taken < options.cell_candidates; ++cut) {
      for (uint32_t cell : rows[scored[cut].second]) {
        if (taken == options.cell_candidates) break;
        auto& [sum, count] = grouped[corpus.refs[cell].relation];
        sum += scored[cut].first;
        ++count;
        ++taken;
      }
    }
    --cut;
    if ((cut > 0 && scored[cut - 1].first - scored[cut].first < kTie) ||
        (cut + 1 < scored.size() &&
         scored[cut].first - scored[cut + 1].first < kTie)) {
      continue;
    }
    ++checked;
    const Ranking ranking = anns->Search(q.text, search).MoveValue();
    ASSERT_EQ(ranking.size(), grouped.size());
    for (const DiscoveryHit& hit : ranking) {
      auto it = grouped.find(hit.relation);
      ASSERT_NE(it, grouped.end()) << "relation " << hit.relation;
      EXPECT_NEAR(hit.score, it->second.first / it->second.second, kTie)
          << "relation " << hit.relation;
    }
  }
  EXPECT_GT(checked, inputs.workload.queries.size() / 2);
}

TEST(AnnsSearcherTest, LoadedCorpusRanksLikeBuiltCorpus) {
  // The index groups cells by the bytes of their vectors, not by their
  // texts, which a loaded corpus no longer has: a corpus restored from its
  // snapshot builds the same index and ranks every query identically.
  const SearcherInputs inputs;
  auto path =
      std::filesystem::temp_directory_path() / "mira_anns_corpus_rt.bin";
  ASSERT_TRUE(inputs.corpus->Save(path.string()).ok());
  auto loaded = std::make_shared<CorpusEmbeddings>(
      CorpusEmbeddings::Load(path.string()).MoveValue());
  std::remove(path.c_str());
  const table::Federation& federation = inputs.workload.corpus.federation;
  auto built =
      AnnsSearcher::Build(federation, inputs.corpus, inputs.encoder)
          .MoveValue();
  auto reopened =
      AnnsSearcher::Build(federation, loaded, inputs.encoder).MoveValue();
  EXPECT_EQ(reopened->MemoryUsage().total(), built->MemoryUsage().total());

  DiscoveryOptions options;
  options.top_k = 1000;
  for (const auto& q : inputs.workload.queries) {
    SCOPED_TRACE(q.text);
    const Ranking a = built->Search(q.text, options).MoveValue();
    const Ranking b = reopened->Search(q.text, options).MoveValue();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].relation, b[i].relation);
      EXPECT_EQ(std::bit_cast<uint32_t>(a[i].score),
                std::bit_cast<uint32_t>(b[i].score));
    }
  }
}

// ---------- Motivating example (Figure 1) ----------

class MotivatingExampleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CovidFixture fx = MakeCovidFixture();
    fixture_ = new CovidFixture(std::move(fx));
    engine_ = DiscoveryEngine::Build(fixture_->federation, fixture_->lexicon,
                                     FastEngineOptions())
                  .MoveValue()
                  .release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete fixture_;
  }
  static CovidFixture* fixture_;
  static DiscoveryEngine* engine_;
};

CovidFixture* MotivatingExampleTest::fixture_ = nullptr;
DiscoveryEngine* MotivatingExampleTest::engine_ = nullptr;

TEST_F(MotivatingExampleTest, KeywordCovidFindsAllThreeVaccineTables) {
  // Sarah's query: plain keyword search would return only ECDC; semantic
  // matching must surface WHO and CDC too (they never mention "COVID").
  for (Method method : {Method::kExhaustive, Method::kAnns, Method::kCts}) {
    DiscoveryOptions options;
    options.top_k = 3;
    Ranking ranking = engine_->Search(method, "COVID", options).MoveValue();
    ASSERT_EQ(ranking.size(), 3u) << MethodToString(method);
    std::unordered_set<table::RelationId> found;
    for (const auto& hit : ranking) found.insert(hit.relation);
    EXPECT_TRUE(found.count(fixture_->who)) << MethodToString(method);
    EXPECT_TRUE(found.count(fixture_->cdc)) << MethodToString(method);
    EXPECT_TRUE(found.count(fixture_->ecdc)) << MethodToString(method);
  }
}

TEST_F(MotivatingExampleTest, UnrelatedTablesScoreLower) {
  DiscoveryOptions options;
  options.top_k = 5;
  Ranking ranking =
      engine_->Search(Method::kExhaustive, "COVID vaccine", options).MoveValue();
  ASSERT_EQ(ranking.size(), 5u);
  // Football and weather must occupy the two last positions.
  std::unordered_set<table::RelationId> tail = {ranking[3].relation,
                                                ranking[4].relation};
  EXPECT_TRUE(tail.count(fixture_->football));
  EXPECT_TRUE(tail.count(fixture_->weather));
}

TEST_F(MotivatingExampleTest, ThresholdFiltersUnrelated) {
  DiscoveryOptions options;
  options.top_k = 5;
  Ranking unfiltered =
      engine_->Search(Method::kExhaustive, "comirnaty", options).MoveValue();
  ASSERT_EQ(unfiltered.size(), 5u);
  // Pick a threshold between the 3rd (related) and 4th (unrelated) scores.
  float h = (unfiltered[2].score + unfiltered[3].score) / 2.0f;
  options.threshold = h;
  Ranking filtered =
      engine_->Search(Method::kExhaustive, "comirnaty", options).MoveValue();
  EXPECT_EQ(filtered.size(), 3u);
  for (const auto& hit : filtered) EXPECT_GE(hit.score, h);
}

TEST_F(MotivatingExampleTest, TopKTruncates) {
  DiscoveryOptions options;
  options.top_k = 2;
  Ranking ranking =
      engine_->Search(Method::kCts, "vaccine dose", options).MoveValue();
  EXPECT_LE(ranking.size(), 2u);
}

TEST_F(MotivatingExampleTest, RankingSortedByScore) {
  DiscoveryOptions options;
  options.top_k = 5;
  for (Method method : {Method::kExhaustive, Method::kAnns, Method::kCts}) {
    Ranking ranking =
        engine_->Search(method, "mrna vaccine", options).MoveValue();
    for (size_t i = 1; i < ranking.size(); ++i) {
      EXPECT_GE(ranking[i - 1].score, ranking[i].score);
    }
  }
}

// ---------- Engine plumbing ----------

TEST(EngineTest, DisabledSearchersReportFailedPrecondition) {
  CovidFixture fx = MakeCovidFixture();
  EngineOptions options = FastEngineOptions();
  options.build_anns = false;
  options.build_cts = false;
  auto engine =
      DiscoveryEngine::Build(fx.federation, fx.lexicon, options).MoveValue();
  EXPECT_TRUE(engine->Search(Method::kAnns, "covid", {}).status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(engine->Search(Method::kCts, "covid", {}).status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(engine->Search(Method::kExhaustive, "covid", {}).ok());
}

TEST(EngineTest, NullLexiconRejected) {
  CovidFixture fx = MakeCovidFixture();
  EXPECT_TRUE(DiscoveryEngine::Build(fx.federation, nullptr, {})
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineTest, MethodNames) {
  EXPECT_EQ(MethodToString(Method::kExhaustive), "ExS");
  EXPECT_EQ(MethodToString(Method::kAnns), "ANNS");
  EXPECT_EQ(MethodToString(Method::kCts), "CTS");
}

// ---------- Algorithm-level behaviour on a generated workload ----------

class GeneratedWorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(SmallWorkload());
    engine_ = DiscoveryEngine::Build(workload_->corpus.federation,
                                     workload_->bank.lexicon(),
                                     FastEngineOptions())
                  .MoveValue()
                  .release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete workload_;
  }

  static double MapOf(Method method) {
    DiscoveryOptions options;
    options.top_k = 60;
    std::unordered_map<ir::QueryId, std::vector<ir::DocId>> run;
    for (const auto& q : workload_->queries) {
      auto ranking = engine_->Search(method, q.text, options).MoveValue();
      std::vector<ir::DocId> docs;
      for (const auto& hit : ranking) docs.push_back(hit.relation);
      run[q.id] = std::move(docs);
    }
    return ir::Evaluate(workload_->qrels, run).map;
  }

  static Workload* workload_;
  static DiscoveryEngine* engine_;
};

Workload* GeneratedWorkloadTest::workload_ = nullptr;
DiscoveryEngine* GeneratedWorkloadTest::engine_ = nullptr;

TEST_F(GeneratedWorkloadTest, AllMethodsFarAboveRandom) {
  // Random ranking over 150 tables with ~15 relevant would have MAP ~0.1.
  EXPECT_GT(MapOf(Method::kExhaustive), 0.3);
  EXPECT_GT(MapOf(Method::kAnns), 0.3);
  EXPECT_GT(MapOf(Method::kCts), 0.3);
}

TEST_F(GeneratedWorkloadTest, FocusedMethodsBeatExhaustive) {
  // The paper's central quality claim (Tables 1-3): CTS and ANNS outrank
  // whole-table averaging.
  double exs = MapOf(Method::kExhaustive);
  EXPECT_GT(MapOf(Method::kCts), exs - 0.02);
  EXPECT_GT(MapOf(Method::kAnns), exs - 0.02);
}

TEST_F(GeneratedWorkloadTest, ExhaustiveDeterministic) {
  DiscoveryOptions options;
  options.top_k = 10;
  const auto& q = workload_->queries.front();
  auto a = engine_->Search(Method::kExhaustive, q.text, options).MoveValue();
  auto b = engine_->Search(Method::kExhaustive, q.text, options).MoveValue();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].relation, b[i].relation);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST_F(GeneratedWorkloadTest, CachedExhaustiveMatchesFaithful) {
  // The ExS-cached ablation (one dot per relation against its mean cell
  // vector) must return the rankings of the faithful per-cell scan on every
  // query — only speed differs. Two inputs: the small workload, and every
  // query of a 250-table federation, the size of the benchmark's.
  const Workload large = Workload::Generate(datagen::WikiTablesWorkload(250));
  const Workload* const inputs[] = {workload_, &large};
  for (const Workload* workload : inputs) {
    const table::Federation& federation = workload->corpus.federation;
    SCOPED_TRACE(federation.size());
    auto encoder = std::make_shared<embed::SemanticEncoder>(
        engine_->encoder().options(), workload->bank.lexicon());
    auto freqs = std::make_shared<embed::TokenFrequencies>();
    for (const auto& rel : federation.relations()) {
      freqs->AddText(rel.ConsolidatedText());
    }
    encoder->SetTokenFrequencies(freqs);
    auto corpus = std::make_shared<CorpusEmbeddings>(
        CorpusEmbeddings::Build(federation, *encoder).MoveValue());
    ExhaustiveSearcher faithful(&federation, corpus, encoder);
    ExsOptions cached;
    cached.reuse_corpus_embeddings = true;
    ExhaustiveSearcher fast(nullptr, corpus, encoder, cached);
    DiscoveryOptions options;
    options.top_k = 20;
    ASSERT_FALSE(workload->queries.empty());
    for (const auto& q : workload->queries) {
      SCOPED_TRACE(q.text);
      auto slow = faithful.Search(q.text, options).MoveValue();
      auto quick = fast.Search(q.text, options).MoveValue();
      ASSERT_EQ(slow.size(), quick.size());
      for (size_t i = 0; i < slow.size(); ++i) {
        EXPECT_EQ(slow[i].relation, quick[i].relation);
        EXPECT_NEAR(slow[i].score, quick[i].score, 1e-4);
      }
    }
  }
}

TEST_F(GeneratedWorkloadTest, ParallelExhaustiveMatchesSerial) {
  ExsOptions parallel_options;
  parallel_options.num_threads = 4;
  ExhaustiveSearcher parallel(&workload_->corpus.federation,
                              std::make_shared<CorpusEmbeddings>(
                                  CorpusEmbeddings::Build(
                                      workload_->corpus.federation,
                                      engine_->encoder())
                                      .MoveValue()),
                              std::shared_ptr<const embed::SemanticEncoder>(
                                  &engine_->encoder(),
                                  [](const embed::SemanticEncoder*) {}),
                              parallel_options);
  const Searcher& serial_searcher = *engine_->searcher(Method::kExhaustive);
  DiscoveryOptions options;
  options.top_k = 15;
  // A generous active deadline takes the checked scan of each searcher; it
  // must not change a score.
  DiscoveryOptions bounded = options;
  bounded.control.deadline = Deadline::After(600'000.0);
  for (size_t qi = 0; qi < 3; ++qi) {
    const auto& q = workload_->queries[qi];
    SCOPED_TRACE(q.text);
    auto serial = serial_searcher.Search(q.text, options).MoveValue();
    const Ranking others[] = {
        serial_searcher.Search(q.text, bounded).MoveValue(),
        parallel.Search(q.text, options).MoveValue(),
        parallel.Search(q.text, bounded).MoveValue()};
    for (const Ranking& other : others) {
      ASSERT_EQ(serial.size(), other.size());
      EXPECT_FALSE(other.degraded);
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].relation, other[i].relation);
        EXPECT_NEAR(serial[i].score, other[i].score, 1e-5);
      }
    }
  }
}

TEST_F(GeneratedWorkloadTest, CtsBuildsMultipleClusters) {
  const auto* cts =
      static_cast<const CtsSearcher*>(engine_->searcher(Method::kCts));
  ASSERT_NE(cts, nullptr);
  EXPECT_GT(cts->num_clusters(), 1u);
  EXPECT_LT(cts->largest_cluster_fraction(), 0.9);
  EXPECT_GT(cts->IndexMemoryBytes(), 0u);
}

// ---------- CTS ranking fingerprints ----------

// FNV-1a over every workload query's full CTS ranking: the (relation, score
// bits) pairs in rank order, then the degraded and partial flags.
uint64_t CtsRankingFingerprint(const Searcher& cts, const Workload& workload) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  DiscoveryOptions options;
  options.top_k = 1000;
  for (const auto& q : workload.queries) {
    auto ranking = cts.Search(q.text, options);
    EXPECT_TRUE(ranking.ok()) << ranking.status().ToString();
    if (!ranking.ok()) return 0;
    mix(ranking->size());
    for (const auto& hit : *ranking) {
      mix(hit.relation);
      mix(std::bit_cast<uint32_t>(hit.score));
    }
    mix(ranking->degraded);
    mix(ranking->partial);
  }
  return hash;
}

// The recorded fingerprint for the active SIMD tier (first: scalar, second:
// AVX2), or nullopt on a tier with none recorded.
std::optional<uint64_t> FingerprintForTier(uint64_t scalar, uint64_t avx2) {
  switch (vecmath::ActiveSimdTier()) {
    case vecmath::SimdTier::kScalar:
      return scalar;
    case vecmath::SimdTier::kAvx2:
      return avx2;
    default:
      return std::nullopt;
  }
}

// The test engine options without ANNS, which the CTS tests do not need.
EngineOptions CtsOnlyEngineOptions() {
  EngineOptions options = FastEngineOptions();
  options.build_anns = false;
  return options;
}

std::unique_ptr<DiscoveryEngine> BuildEngine(const Workload& workload,
                                             const EngineOptions& options) {
  return DiscoveryEngine::Build(workload.corpus.federation,
                                workload.bank.lexicon(), options)
      .MoveValue();
}

TEST(CtsSearchTest, RankingMatchesParentFingerprint) {
  // Pins the CTS rankings bit for bit over the whole workload, clustering
  // included. Scalar constant under MIRA_FORCE_SCALAR=1, AVX2 without it.
  const std::optional<uint64_t> expected = FingerprintForTier(
      5994968623203227762ULL, 6193732263476244090ULL);
  if (!expected.has_value()) {
    GTEST_SKIP() << "no recorded CTS fingerprint for SIMD tier "
                 << vecmath::SimdTierName(vecmath::ActiveSimdTier());
  }
  const Workload workload = SmallWorkload();
  auto engine = BuildEngine(workload, CtsOnlyEngineOptions());
  const auto* cts =
      static_cast<const CtsSearcher*>(engine->searcher(Method::kCts));
  ASSERT_NE(cts, nullptr);
  ASSERT_GT(cts->num_clusters(), 1u);
  EXPECT_EQ(CtsRankingFingerprint(*cts, workload), *expected);
}

TEST(CtsSearchTest, LargeClusterRankingMatchesParentFingerprint) {
  // A corpus below the clustering floor (4 x min_cluster_size cells)
  // collapses into one cluster; past 2048 cells that cluster is searched
  // through an HNSW graph instead of a flat scan. It never runs UMAP.
  // Scalar constant under MIRA_FORCE_SCALAR=1, AVX2 without it.
  const std::optional<uint64_t> expected = FingerprintForTier(
      2326614739933340567ULL, 16953455431268257531ULL);
  if (!expected.has_value()) {
    GTEST_SKIP() << "no recorded CTS fingerprint for SIMD tier "
                 << vecmath::SimdTierName(vecmath::ActiveSimdTier());
  }
  const Workload workload = SmallWorkload();
  EngineOptions options = CtsOnlyEngineOptions();
  options.cts.hdbscan.min_cluster_size = 4096;
  auto engine = BuildEngine(workload, options);
  ASSERT_GT(engine->corpus().num_cells(), 2048u);
  ASSERT_LT(engine->corpus().num_cells(), 4u * 4096u);
  const auto* cts =
      static_cast<const CtsSearcher*>(engine->searcher(Method::kCts));
  ASSERT_NE(cts, nullptr);
  ASSERT_EQ(cts->num_clusters(), 1u);
  EXPECT_GT(cts->MemoryUsage().index.graph_bytes, 0u);
  EXPECT_EQ(CtsRankingFingerprint(*cts, workload), *expected);
}

TEST(CtsSearchTest, WrongDimensionQueryIsInvalidArgument) {
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions corpus_options;
  corpus_options.dim = 64;
  embed::SemanticEncoder corpus_encoder(corpus_options, fx.lexicon);
  auto corpus = std::make_shared<CorpusEmbeddings>(
      CorpusEmbeddings::Build(fx.federation, corpus_encoder).MoveValue());
  embed::EncoderOptions query_options;
  query_options.dim = 32;
  auto query_encoder =
      std::make_shared<embed::SemanticEncoder>(query_options, fx.lexicon);
  auto cts = CtsSearcher::Build(fx.federation, corpus, query_encoder);
  ASSERT_TRUE(cts.ok()) << cts.status().ToString();
  auto ranking = (*cts)->Search("covid vaccine", {});
  EXPECT_TRUE(ranking.status().IsInvalidArgument())
      << ranking.status().ToString();
}

TEST_F(GeneratedWorkloadTest, AnnsReportsIndexMemory) {
  const auto* anns =
      static_cast<const AnnsSearcher*>(engine_->searcher(Method::kAnns));
  ASSERT_NE(anns, nullptr);
  EXPECT_GT(anns->IndexMemoryBytes(), 0u);
}

TEST_F(GeneratedWorkloadTest, AnnsGroupingMatchesPayloadGrouping) {
  // Reference for Algorithm 2's step 2: a separately built HNSW index over
  // the corpus's distinct rows, with the options AnnsSearcher::Build
  // derives. Its hits expand to their cells, ascending, until
  // cell_candidates cells are taken, grouped by each cell's relation in
  // corpus.refs. The searcher's own grouping must agree bit for bit.
  const auto* anns =
      static_cast<const AnnsSearcher*>(engine_->searcher(Method::kAnns));
  ASSERT_NE(anns, nullptr);
  const AnnsOptions& anns_options = anns->options();
  const CorpusEmbeddings& corpus = engine_->corpus();
  index::HnswOptions hnsw;
  hnsw.M = anns_options.hnsw_m;
  hnsw.ef_construction = anns_options.hnsw_ef_construction;
  hnsw.ef_search = anns_options.ef_search;
  hnsw.metric = vecmath::Metric::kCosine;
  hnsw.seed = anns_options.seed;
  if (anns_options.use_pq) {
    index::PqOptions pq;
    pq.num_subquantizers = anns_options.pq_subquantizers;
    while (corpus.dim() % pq.num_subquantizers != 0) --pq.num_subquantizers;
    hnsw.quantization = pq;
  }
  const auto rows = CellsByDistinctRow(corpus);
  index::HnswIndex distinct(hnsw);
  for (size_t d = 0; d < rows.size(); ++d) {
    ASSERT_TRUE(
        distinct.Add(d, corpus.CellVectors().RowVec(rows[d].front())).ok());
  }
  ASSERT_TRUE(distinct.Build().ok());

  DiscoveryOptions options;
  options.top_k = 1000;
  for (const auto& q : workload_->queries) {
    vecmath::Vec embedding = engine_->encoder().EncodeText(q.text);
    vecmath::NormalizeInPlace(&embedding);
    auto hits = distinct.Search(embedding, {anns_options.cell_candidates,
                                            anns_options.ef_search})
                    .MoveValue();
    std::map<table::RelationId, std::pair<double, uint32_t>> grouped;
    size_t taken = 0;
    for (const auto& hit : hits) {
      for (uint32_t cell : rows[hit.id]) {
        if (taken == anns_options.cell_candidates) break;
        auto& [sum, count] = grouped[corpus.refs[cell].relation];
        sum += hit.score;
        ++count;
        ++taken;
      }
    }
    ASSERT_EQ(taken, anns_options.cell_candidates);
    Ranking expected;
    for (const auto& [rid, sum_count] : grouped) {
      expected.push_back(
          {rid, static_cast<float>(sum_count.first / sum_count.second)});
    }
    std::sort(expected.begin(), expected.end(),
              [](const DiscoveryHit& a, const DiscoveryHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.relation < b.relation;
              });
    ApplyThresholdAndTopK(&expected, options);

    auto ranking = engine_->Search(Method::kAnns, q.text, options).MoveValue();
    ASSERT_EQ(ranking.size(), expected.size()) << q.text;
    for (size_t i = 0; i < ranking.size(); ++i) {
      EXPECT_EQ(ranking[i].relation, expected[i].relation) << q.text;
      EXPECT_EQ(std::bit_cast<uint32_t>(ranking[i].score),
                std::bit_cast<uint32_t>(expected[i].score))
          << q.text;
    }
  }
}

TEST_F(GeneratedWorkloadTest, AnnsRetrievingEveryCellMatchesExs) {
  // Metamorphic check of Algorithm 2 against Algorithm 1: once the HNSW
  // probe returns every distinct vector, ANNS takes every cell, and its
  // per-relation mean over them is the one cached ExS scores as q·m_r. The
  // premise needs a graph that reaches every node, which the default
  // hnsw_m of 16 does over this corpus's distinct vectors (2,434 of them for
  // 5,023 cells, up to 43 copies of one).
  const CorpusEmbeddings& corpus = engine_->corpus();
  std::shared_ptr<const CorpusEmbeddings> shared_corpus(
      &corpus, [](const CorpusEmbeddings*) {});
  std::shared_ptr<const embed::SemanticEncoder> encoder(
      &engine_->encoder(), [](const embed::SemanticEncoder*) {});
  AnnsOptions anns_options;
  anns_options.use_pq = false;
  anns_options.cell_candidates = corpus.num_cells();
  anns_options.ef_search = corpus.num_cells();
  auto anns = AnnsSearcher::Build(workload_->corpus.federation, shared_corpus,
                                  encoder, anns_options)
                  .MoveValue();
  ExsOptions exs_options;
  exs_options.reuse_corpus_embeddings = true;
  ExhaustiveSearcher exs(nullptr, shared_corpus, encoder, exs_options);

  constexpr float kTolerance = 1e-5f;
  DiscoveryOptions options;
  options.top_k = corpus.num_relations;
  ASSERT_FALSE(workload_->queries.empty());
  for (const auto& q : workload_->queries) {
    SCOPED_TRACE(q.text);
    Ranking approx;
    {
      obs::QueryTrace trace;
      obs::ScopedTrace scope(&trace);
      approx = anns->Search(q.text, options).MoveValue();
      // The graph reaches every node, so every cell is taken (checked where
      // tracing is compiled in; a missed cell also shows as a score
      // mismatch below). Hits count distinct vectors.
      if (scope.armed()) {
        ASSERT_EQ(trace.CounterValue("anns.hnsw_search", "cells"),
                  static_cast<int64_t>(corpus.num_cells()));
        ASSERT_LT(trace.CounterValue("anns.hnsw_search", "hits"),
                  static_cast<int64_t>(corpus.num_cells()));
      }
    }
    const Ranking exact = exs.Search(q.text, options).MoveValue();
    ASSERT_EQ(approx.size(), exact.size());
    std::map<table::RelationId, size_t> approx_rank;
    for (size_t i = 0; i < approx.size(); ++i) {
      approx_rank[approx[i].relation] = i;
    }
    ASSERT_EQ(approx_rank.size(), approx.size());
    for (const DiscoveryHit& hit : exact) {
      auto it = approx_rank.find(hit.relation);
      ASSERT_NE(it, approx_rank.end()) << "relation " << hit.relation;
      EXPECT_NEAR(approx[it->second].score, hit.score, kTolerance)
          << "relation " << hit.relation;
    }
    // Each score may be off by the tolerance, so only neighbours whose ExS
    // scores are further apart than twice that have a fixed order.
    for (size_t i = 0; i + 1 < exact.size(); ++i) {
      if (exact[i].score - exact[i + 1].score > 2 * kTolerance) {
        EXPECT_LT(approx_rank[exact[i].relation],
                  approx_rank[exact[i + 1].relation])
            << "ExS ranks " << i << " and " << i + 1;
      }
    }
  }
}

// ---------- Observability integration ----------

TEST_F(GeneratedWorkloadTest, BuildReportPopulated) {
  const BuildReport& report = engine_->build_report();
  EXPECT_EQ(report.num_relations, workload_->corpus.federation.size());
  EXPECT_GT(report.num_cells, 0u);
  EXPECT_GT(report.dim, 0u);
  EXPECT_FALSE(report.reused_corpus);
  EXPECT_GT(report.embed_ms, 0.0);
  EXPECT_GT(report.total_ms, 0.0);
  EXPECT_GE(report.total_ms, report.embed_ms);
  EXPECT_GT(report.anns_index_bytes, 0u);
  EXPECT_GT(report.cts_index_bytes, 0u);
  EXPECT_GT(report.cts_clusters, 0u);
  EXPECT_NE(report.ToString().find("relations="), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"num_cells\""), std::string::npos);
}

TEST_F(GeneratedWorkloadTest, SearchTracedMatchesSearch) {
  DiscoveryOptions options;
  options.top_k = 10;
  const auto& q = workload_->queries.front();
  auto plain = engine_->Search(Method::kExhaustive, q.text, options).MoveValue();
  auto traced =
      engine_->SearchTraced(Method::kExhaustive, q.text, options).MoveValue();
  ASSERT_EQ(plain.size(), traced.ranking.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].relation, traced.ranking[i].relation);
    EXPECT_EQ(plain[i].score, traced.ranking[i].score);
  }
}

TEST_F(GeneratedWorkloadTest, TracedExhaustiveSearchPopulatesSpans) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  DiscoveryOptions options;
  options.top_k = 10;
  const auto& q = workload_->queries.front();
  auto traced =
      engine_->SearchTraced(Method::kExhaustive, q.text, options).MoveValue();
  const obs::QueryTrace& trace = traced.trace;
  ASSERT_FALSE(trace.empty());
  EXPECT_STREQ(trace.spans().front().name, "query");
  EXPECT_EQ(trace.spans().front().label, "ExS");
  EXPECT_GT(trace.TotalMillis(), 0.0);
  ASSERT_NE(trace.Find("embed_query"), nullptr);
  ASSERT_NE(trace.Find("exs.scan"), nullptr);
  EXPECT_GT(trace.SpanMillis("exs.scan"), 0.0);
  EXPECT_EQ(trace.CounterValue("exs.scan", "cells_scanned"),
            static_cast<int64_t>(engine_->corpus().num_cells()));
  EXPECT_GT(trace.CounterValue("exs.scan", "dist_comps"), 0);
}

TEST_F(GeneratedWorkloadTest, TracedAnnsSearchPopulatesSpans) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  DiscoveryOptions options;
  options.top_k = 10;
  const auto& q = workload_->queries.front();
  auto traced =
      engine_->SearchTraced(Method::kAnns, q.text, options).MoveValue();
  const obs::QueryTrace& trace = traced.trace;
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.spans().front().label, "ANNS");
  EXPECT_GT(trace.TotalMillis(), 0.0);
  ASSERT_NE(trace.Find("embed_query"), nullptr);
  ASSERT_NE(trace.Find("anns.hnsw_search"), nullptr);
  EXPECT_GT(trace.SpanMillis("anns.hnsw_search"), 0.0);
  EXPECT_GT(trace.CounterValue("anns.hnsw_search", "hits"), 0);
  EXPECT_EQ(trace.CounterValue("anns.hnsw_search", "cells"),
            static_cast<int64_t>(AnnsOptions().cell_candidates));
  // The index layer contributes a nested span.
  ASSERT_NE(trace.Find("hnsw.search"), nullptr);
  EXPECT_GT(trace.CounterValue("hnsw.search", "dist_comps") +
                trace.CounterValue("hnsw.search", "adc_decoded"),
            0);
  EXPECT_GT(trace.CounterValue("hnsw.search", "popped"), 0);
}

TEST_F(GeneratedWorkloadTest, TracedCtsSearchPopulatesSpans) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  DiscoveryOptions options;
  options.top_k = 10;
  const auto& q = workload_->queries.front();
  auto traced =
      engine_->SearchTraced(Method::kCts, q.text, options).MoveValue();
  const obs::QueryTrace& trace = traced.trace;
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.spans().front().label, "CTS");
  EXPECT_GT(trace.TotalMillis(), 0.0);
  ASSERT_NE(trace.Find("embed_query"), nullptr);
  ASSERT_NE(trace.Find("cts.medoid_match"), nullptr);
  ASSERT_NE(trace.Find("cts.cluster_search"), nullptr);
  EXPECT_GT(trace.SpanMillis("cts.cluster_search"), 0.0);
  EXPECT_GT(trace.CounterValue("cts.medoid_match", "clusters_total"), 0);
  EXPECT_GT(trace.CounterValue("cts.medoid_match", "clusters_selected"), 0);
  EXPECT_GT(trace.CounterValue("cts.cluster_search", "clusters_searched"), 0);
  EXPECT_GT(trace.CounterValue("cts.cluster_search", "relations"), 0);
}

TEST_F(GeneratedWorkloadTest, QueryMetricsRecorded) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  auto& registry = obs::MetricRegistry::Global();
  uint64_t before = registry.GetCounter("mira.query.count.cts").value();
  uint64_t hist_before =
      registry.GetHistogram("mira.query.latency_ms.cts").TakeSnapshot().count;
  DiscoveryOptions options;
  options.top_k = 5;
  engine_->Search(Method::kCts, workload_->queries.front().text, options)
      .MoveValue();
  EXPECT_EQ(registry.GetCounter("mira.query.count.cts").value(), before + 1);
  EXPECT_EQ(
      registry.GetHistogram("mira.query.latency_ms.cts").TakeSnapshot().count,
      hist_before + 1);
}

TEST_F(GeneratedWorkloadTest, TraceSamplingZeroDisablesCollection) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  obs::SetTraceSampling(0);
  DiscoveryOptions options;
  options.top_k = 5;
  auto traced = engine_
                    ->SearchTraced(Method::kExhaustive,
                                   workload_->queries.front().text, options)
                    .MoveValue();
  obs::SetTraceSampling(1);
  EXPECT_TRUE(traced.trace.empty());
  EXPECT_FALSE(traced.ranking.empty());
}

TEST(TracedScanTest, ParallelFaithfulScanEmitsWorkerSpans) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  // A 4-thread faithful scan re-encodes each relation on a pool worker:
  // every exs.scan_relation span must come back spliced under exs.scan with
  // the worker's thread id. The cached scan on a 4-thread searcher is one
  // dot per relation on the calling thread, so it emits no worker spans.
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions encoder_options;
  encoder_options.dim = 32;
  auto encoder =
      std::make_shared<embed::SemanticEncoder>(encoder_options, fx.lexicon);
  auto corpus = std::make_shared<CorpusEmbeddings>(
      CorpusEmbeddings::Build(fx.federation, *encoder).MoveValue());
  const int64_t kCells = static_cast<int64_t>(corpus->num_cells());

  auto trace_scan = [&](bool reuse) {
    ExsOptions exs;
    exs.reuse_corpus_embeddings = reuse;
    exs.num_threads = 4;
    ExhaustiveSearcher scanner(&fx.federation, corpus, encoder, exs);
    obs::QueryTrace trace;
    {
      obs::ScopedTrace collect(&trace);
      EXPECT_TRUE(collect.armed());
      auto ranking = scanner.Search("covid vaccine", {}).MoveValue();
      EXPECT_FALSE(ranking.empty());
    }
    return trace;
  };

  const obs::QueryTrace faithful = trace_scan(false);
  const obs::SpanRecord* scan = faithful.Find("exs.scan");
  ASSERT_NE(scan, nullptr);
  const int32_t scan_index =
      static_cast<int32_t>(scan - faithful.spans().data());
  size_t relations = 0;
  for (const obs::SpanRecord& span : faithful.spans()) {
    if (std::string_view(span.name) != "exs.scan_relation") continue;
    ++relations;
    EXPECT_EQ(span.parent, scan_index);
    EXPECT_GT(span.tid, 0);
  }
  EXPECT_EQ(relations, fx.federation.size());  // one span per relation
  EXPECT_EQ(faithful.CounterValue("exs.scan_relation", "cells"), kCells);
  EXPECT_EQ(faithful.CounterValue("exs.scan", "cells_scanned"), kCells);

  const obs::QueryTrace cached = trace_scan(true);
  ASSERT_NE(cached.Find("exs.scan"), nullptr);
  EXPECT_EQ(cached.CounterValue("exs.scan", "cells_scanned"), kCells);
  for (const obs::SpanRecord& span : cached.spans()) {
    EXPECT_EQ(span.tid, 0) << span.name;
  }
}

TEST(CachedExhaustiveTest, MeanVectorScoresMatchPerCellAverage) {
  // Hand-built corpus whose relations interleave row by row, with unequal
  // cell counts and one relation without cells: each cached score q·m_r
  // must equal the per-cell average of q·c_i computed in double.
  constexpr size_t kRelations = 7;
  constexpr size_t kEmpty = 3;
  constexpr size_t kDim = 32;
  auto corpus = std::make_shared<CorpusEmbeddings>();
  corpus->num_relations = kRelations;
  corpus->cells_per_relation.assign(kRelations, 0);
  Rng rng(4711);
  std::vector<vecmath::Vec> rows;
  for (size_t i = 0; i < 3000; ++i) {
    const size_t rid = i % kRelations;
    if (rid == kEmpty) continue;
    if (rid == 1 && i % 3 != 0) continue;  // about a third of the others
    if (rid == 5 && i > 200) continue;     // a small relation
    vecmath::Vec row(kDim);
    for (float& x : row) x = rng.NextFloat() - 0.5f;
    vecmath::NormalizeInPlace(&row);
    rows.push_back(std::move(row));
    corpus->refs.push_back({static_cast<table::RelationId>(rid), 0, 0});
    ++corpus->cells_per_relation[rid];
  }
  corpus->rows = vecmath::Matrix(rows.size(), kDim);
  for (size_t i = 0; i < rows.size(); ++i) {
    corpus->rows.SetRow(i, rows[i]);
    corpus->cell_rows.push_back(static_cast<uint32_t>(i));
  }
  ASSERT_NE(corpus->cells_per_relation[1], corpus->cells_per_relation[0]);
  ASSERT_NE(corpus->cells_per_relation[5], corpus->cells_per_relation[0]);

  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions encoder_options;
  encoder_options.dim = kDim;
  auto encoder =
      std::make_shared<embed::SemanticEncoder>(encoder_options, fx.lexicon);
  ExsOptions exs;
  exs.reuse_corpus_embeddings = true;
  ExhaustiveSearcher scanner(nullptr, corpus, encoder, exs);

  const std::string query = "covid vaccine";
  vecmath::Vec q = encoder->EncodeText(query);
  vecmath::NormalizeInPlace(&q);
  std::vector<double> expected(kRelations, 0.0);
  for (size_t i = 0; i < corpus->num_cells(); ++i) {
    double dot = 0.0;
    for (size_t j = 0; j < kDim; ++j) {
      dot += static_cast<double>(q[j]) *
             static_cast<double>(corpus->CellVectors().Row(i)[j]);
    }
    expected[corpus->refs[i].relation] += dot;
  }

  DiscoveryOptions options;
  options.top_k = kRelations;
  const Ranking ranking = scanner.Search(query, options).MoveValue();
  EXPECT_FALSE(ranking.partial);
  ASSERT_EQ(ranking.size(), kRelations - 1);
  for (const DiscoveryHit& hit : ranking) {
    ASSERT_NE(hit.relation, kEmpty);
    EXPECT_NEAR(hit.score,
                expected[hit.relation] /
                    static_cast<double>(corpus->cells_per_relation[hit.relation]),
                1e-6)
        << "relation " << hit.relation;
  }
}

TEST_F(GeneratedWorkloadTest, MemoryUsageBreakdownsArePopulated) {
  const auto* anns =
      static_cast<const AnnsSearcher*>(engine_->searcher(Method::kAnns));
  ASSERT_NE(anns, nullptr);
  CollectionMemoryStats anns_stats = anns->MemoryUsage();
  // ANNS's bookkeeping: the cell->relation map, and the posting lists (an
  // offset per distinct vector plus one, and a cell id per cell).
  const CorpusEmbeddings& corpus = engine_->corpus();
  EXPECT_EQ(anns_stats.points_bytes,
            (2 * corpus.num_cells() + CellsByDistinctRow(corpus).size() + 1) *
                sizeof(uint32_t));
  EXPECT_GT(anns_stats.index.total(), 0u);
  EXPECT_GE(anns_stats.total(), anns_stats.points_bytes);
  // The breakdown's index component is the same number IndexMemoryBytes()
  // reported before the refactor.
  EXPECT_EQ(anns_stats.index.total(), anns->IndexMemoryBytes());

  const auto* cts =
      static_cast<const CtsSearcher*>(engine_->searcher(Method::kCts));
  ASSERT_NE(cts, nullptr);
  CollectionMemoryStats cts_stats = cts->MemoryUsage();
  EXPECT_GT(cts_stats.points_bytes, 0u);
  EXPECT_GT(cts_stats.total(), 0u);
  // No cluster of this workload reaches the graph threshold, so the index
  // is exactly the cell row block plus one medoid row per cluster.
  EXPECT_EQ(cts_stats.index.graph_bytes, 0u);
  EXPECT_EQ(cts_stats.index.vectors_bytes,
            (corpus.num_cells() + cts->num_clusters()) * corpus.dim() *
                sizeof(float));
  EXPECT_EQ(cts_stats.index.total(), cts->IndexMemoryBytes());
}

TEST_F(GeneratedWorkloadTest, PublishResourceMetricsFillsGauges) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  engine_->PublishResourceMetrics();
  auto& registry = obs::MetricRegistry::Global();
  EXPECT_GT(registry.GetGauge("mira.mem.corpus_bytes").value(), 0.0);
  EXPECT_GT(registry.GetGauge("mira.mem.anns.total_bytes").value(), 0.0);
  EXPECT_GT(registry.GetGauge("mira.mem.cts.total_bytes").value(), 0.0);
  EXPECT_GT(registry.GetGauge("mira.mem.total_bytes").value(),
            registry.GetGauge("mira.mem.anns.total_bytes").value());
}

TEST_F(GeneratedWorkloadTest, SearchAppendsToTheGlobalQueryLog) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  auto& log = obs::QueryLog::Global();
  const uint64_t before = log.total_recorded();
  DiscoveryOptions options;
  options.top_k = 5;
  engine_->Search(Method::kCts, workload_->queries.front().text, options)
      .MoveValue();
  ASSERT_EQ(log.total_recorded(), before + 1);
  std::vector<obs::QueryLogEntry> entries = log.Snapshot();
  ASSERT_FALSE(entries.empty());
  const obs::QueryLogEntry& entry = entries.back();
  EXPECT_STREQ(entry.method, "CTS");
  EXPECT_TRUE(entry.ok);
  EXPECT_EQ(entry.k, 5u);
  EXPECT_GT(entry.duration_ms, 0.0);
  EXPECT_FALSE(entry.traced);
  EXPECT_LT(entry.budget_consumed, 0.0);  // no deadline was set
}

TEST_F(GeneratedWorkloadTest, SlowTracedQueryIsPromoted) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with MIRA_OBS=OFF";
  auto& log = obs::QueryLog::Global();
  log.SetSlowThresholdMs(0.0001);  // everything is slow
  const size_t slow_before = log.SlowTraces().size();
  DiscoveryOptions options;
  options.top_k = 5;
  auto traced =
      engine_
          ->SearchTraced(Method::kCts, workload_->queries.front().text, options)
          .MoveValue();
  log.SetSlowThresholdMs(0.0);
  ASSERT_FALSE(traced.trace.empty());
  std::vector<obs::QueryLogEntry> entries = log.Snapshot();
  ASSERT_FALSE(entries.empty());
  EXPECT_TRUE(entries.back().traced);
  // The top-span summary names real spans from the trace.
  ASSERT_NE(entries.back().top_spans[0].name, nullptr);
  EXPECT_NE(traced.trace.Find(entries.back().top_spans[0].name), nullptr);
  std::vector<obs::QueryLog::SlowTrace> slow = log.SlowTraces();
  ASSERT_GT(slow.size(), slow_before);
  EXPECT_EQ(slow.back().id, entries.back().id);
  EXPECT_NE(slow.back().trace_json.find("embed_query"), std::string::npos);
}

// ---------- Corpus persistence & BuildWithCorpus ----------

TEST(CorpusPersistenceTest, SaveLoadRoundTrip) {
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 64;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  auto corpus = CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();
  auto path = std::filesystem::temp_directory_path() / "mira_corpus_test.bin";
  ASSERT_TRUE(corpus.Save(path.string()).ok());
  auto loaded = CorpusEmbeddings::Load(path.string()).MoveValue();
  EXPECT_EQ(loaded.num_relations, corpus.num_relations);
  EXPECT_EQ(loaded.num_cells(), corpus.num_cells());
  EXPECT_EQ(loaded.rows.data(), corpus.rows.data());
  EXPECT_EQ(loaded.cell_rows, corpus.cell_rows);
  EXPECT_EQ(loaded.cells_per_relation, corpus.cells_per_relation);
  for (size_t i = 0; i < corpus.num_cells(); ++i) {
    EXPECT_EQ(loaded.refs[i].relation, corpus.refs[i].relation);
    EXPECT_EQ(loaded.refs[i].row, corpus.refs[i].row);
    EXPECT_EQ(loaded.refs[i].col, corpus.refs[i].col);
  }
  std::remove(path.c_str());
}

TEST(CorpusPersistenceTest, LoadRejectsGarbage) {
  auto path = std::filesystem::temp_directory_path() / "mira_corpus_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  // Unreadable content is kDataLoss (retrying cannot help); a missing file
  // is kIoError (possibly transient).
  EXPECT_TRUE(CorpusEmbeddings::Load(path.string()).status().IsDataLoss());
  std::remove(path.c_str());
  EXPECT_TRUE(CorpusEmbeddings::Load("/no/such/corpus").status().IsIoError());
}

TEST(CorpusPersistenceTest, BuildWithCorpusMatchesFreshBuild) {
  CovidFixture fx = MakeCovidFixture();
  EngineOptions options = FastEngineOptions();
  auto fresh =
      DiscoveryEngine::Build(fx.federation, fx.lexicon, options).MoveValue();

  // Round-trip the corpus through disk and rebuild.
  auto path = std::filesystem::temp_directory_path() / "mira_corpus_rt.bin";
  ASSERT_TRUE(fresh->corpus().Save(path.string()).ok());
  auto corpus = CorpusEmbeddings::Load(path.string()).MoveValue();
  auto cached = DiscoveryEngine::BuildWithCorpus(fx.federation, fx.lexicon,
                                                 std::move(corpus), options)
                    .MoveValue();
  std::remove(path.c_str());

  DiscoveryOptions search;
  search.top_k = 5;
  for (auto method : {Method::kExhaustive, Method::kAnns, Method::kCts}) {
    auto a = fresh->Search(method, "covid vaccine", search).MoveValue();
    auto b = cached->Search(method, "covid vaccine", search).MoveValue();
    ASSERT_EQ(a.size(), b.size()) << MethodToString(method);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].relation, b[i].relation);
      EXPECT_NEAR(a[i].score, b[i].score, 1e-5);
    }
  }
}

TEST(CorpusPersistenceTest, BuildWithCorpusValidates) {
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 64;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  auto corpus = CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();

  EngineOptions options;
  options.encoder.dim = 128;  // mismatched dim
  EXPECT_TRUE(DiscoveryEngine::BuildWithCorpus(fx.federation, fx.lexicon,
                                               corpus, options)
                  .status()
                  .IsInvalidArgument());

  table::Federation wrong;  // mismatched relation count
  wrong.AddRelation(fx.federation.relation(0));
  options.encoder.dim = 64;
  EXPECT_TRUE(DiscoveryEngine::BuildWithCorpus(wrong, fx.lexicon,
                                               std::move(corpus), options)
                  .status()
                  .IsInvalidArgument());
}

// ---------- MatchScore (the §3 match function) ----------

TEST(MatchScoreTest, OrdersRelatedAboveUnrelated) {
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 256;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  float who = MatchScore(fx.federation.relation(fx.who), "covid", encoder);
  float football =
      MatchScore(fx.federation.relation(fx.football), "covid", encoder);
  EXPECT_GT(who, football + 0.05f);
}

TEST(MatchScoreTest, MatchesExhaustiveSearcherScore) {
  CovidFixture fx = MakeCovidFixture();
  auto engine =
      DiscoveryEngine::Build(fx.federation, fx.lexicon, FastEngineOptions())
          .MoveValue();
  DiscoveryOptions options;
  options.top_k = 5;
  auto ranking =
      engine->Search(Method::kExhaustive, "vaccine", options).MoveValue();
  for (const auto& hit : ranking) {
    float direct = MatchScore(engine->federation().relation(hit.relation),
                              "vaccine", engine->encoder());
    EXPECT_NEAR(direct, hit.score, 1e-4);
  }
}

TEST(MatchScoreTest, EmptyRelationScoresZero) {
  table::Relation empty;
  empty.schema = {"a"};
  embed::EncoderOptions opts;
  opts.dim = 32;
  embed::SemanticEncoder encoder(opts, std::make_shared<embed::Lexicon>());
  EXPECT_EQ(MatchScore(empty, "anything", encoder), 0.f);
}

// ---------- Ranking selection: SortTopK / ApplyThresholdAndTopK ----------

TEST(RankingSelectionTest, AppliesBothLimits) {
  Ranking ranking = {{0, 0.9f}, {1, 0.7f}, {2, 0.5f}, {3, 0.3f}};
  DiscoveryOptions options;
  options.top_k = 3;
  options.threshold = 0.4f;
  ApplyThresholdAndTopK(&ranking, options);
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking.back().relation, 2u);

  Ranking tight = {{0, 0.9f}, {1, 0.7f}};
  options.threshold = 0.95f;
  ApplyThresholdAndTopK(&tight, options);
  EXPECT_TRUE(tight.empty());
}

// The selection paths against a full sort with the order written out here,
// followed by the prefix cut: element for element, float bits included.
TEST(RankingSelectionTest, MatchesFullSortThenCut) {
  auto full_sort = [](Ranking ranking) {
    std::sort(ranking.begin(), ranking.end(),
              [](const DiscoveryHit& a, const DiscoveryHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.relation < b.relation;
              });
    return ranking;
  };
  auto cut = [](Ranking ranking, size_t top_k, float threshold) {
    size_t keep = 0;
    for (const DiscoveryHit& hit : ranking) {
      if (hit.score < threshold || keep >= top_k) break;
      ++keep;
    }
    ranking.resize(keep);
    return ranking;
  };
  auto expect_same = [](const Ranking& got, const Ranking& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].relation, want[i].relation) << "at " << i;
      EXPECT_EQ(std::bit_cast<uint32_t>(got[i].score),
                std::bit_cast<uint32_t>(want[i].score))
          << "at " << i;
    }
  };
  // A small score set with both zeros makes exact ties common, including
  // -0.0 against +0.0, so the relation tie-break decides most positions.
  const float kScores[] = {-0.25f, -0.0f, 0.0f, 0.125f, 0.5f, 0.5f, 0.875f};
  Rng rng(20);
  for (size_t n : {0u, 1u, 5u, 150u, 1500u}) {
    // Unique relation ids in shuffled order.
    std::vector<table::RelationId> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<table::RelationId>(i);
    for (size_t i = n; i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.NextBounded(i)]);
    }
    Ranking unsorted;
    for (table::RelationId id : ids) {
      unsorted.push_back({id, kScores[rng.NextBounded(std::size(kScores))]});
    }
    const Ranking sorted = full_sort(unsorted);
    for (size_t k : {size_t{0}, size_t{1}, n / 2, n == 0 ? 0 : n - 1, n,
                     n + 7}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " top_k=" << k);
      Ranking selected = unsorted;
      SortTopK(&selected, k);
      expect_same(selected, cut(sorted, k, -1.0f));

      // Thresholds below, at each score inside, and above the kept prefix.
      const size_t kept = std::min(k, n);
      std::vector<float> thresholds = {-1.0f, 2.0f};
      for (size_t i = 0; i < kept; i += std::max<size_t>(1, kept / 4)) {
        thresholds.push_back(sorted[i].score);
      }
      if (kept > 0) thresholds.push_back(sorted[kept - 1].score);
      for (float threshold : thresholds) {
        SCOPED_TRACE(testing::Message() << "threshold=" << threshold);
        DiscoveryOptions options;
        options.top_k = k;
        options.threshold = threshold;
        Ranking ranking = unsorted;
        ApplyThresholdAndTopK(&ranking, options);
        expect_same(ranking, cut(sorted, k, threshold));
      }
    }
  }
}

}  // namespace
}  // namespace mira::discovery
