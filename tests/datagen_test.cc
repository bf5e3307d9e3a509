// Unit tests for src/datagen: concept bank, corpus/query generators, qrels,
// workload views.

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include <filesystem>
#include <fstream>

#include "common/string_util.h"
#include "datagen/export.h"
#include "datagen/workload.h"
#include "ir/trec_io.h"
#include "table/csv_reader.h"
#include "text/tokenizer.h"

namespace mira::datagen {
namespace {

ConceptBankOptions SmallBankOptions() {
  ConceptBankOptions options;
  options.num_topics = 6;
  options.aspects_per_topic = 3;
  options.concepts_per_aspect = 3;
  options.surfaces_per_concept = 4;
  options.filler_vocab = 100;
  return options;
}

// ---------- MakePseudoWord ----------

TEST(PseudoWordTest, ShapeAndDeterminism) {
  Rng a(1), b(1);
  std::string wa = MakePseudoWord(&a, 3);
  std::string wb = MakePseudoWord(&b, 3);
  EXPECT_EQ(wa, wb);
  EXPECT_GE(wa.size(), 6u);
  EXPECT_LE(wa.size(), 7u);
  for (char c : wa) EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)));
}

// ---------- ConceptBank ----------

TEST(ConceptBankTest, StructureCounts) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  EXPECT_EQ(bank.num_topics(), 6u);
  EXPECT_EQ(bank.num_aspects(), 18u);
  // Lexicon: per topic 1 label concept + 3*3 aspect concepts.
  EXPECT_EQ(bank.lexicon()->num_concepts(), 6u * (1 + 9));
  EXPECT_EQ(bank.lexicon()->num_aspects(), 18u);
  EXPECT_EQ(bank.filler().size(), 100u);
}

TEST(ConceptBankTest, AspectIdsMatchLexicon) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  for (int32_t topic = 0; topic < 6; ++topic) {
    for (size_t a = 0; a < 3; ++a) {
      int32_t aspect = bank.AspectOf(topic, a);
      EXPECT_EQ(bank.lexicon()->TopicOfAspect(aspect), topic);
      EXPECT_EQ(bank.TopicOfAspect(aspect), topic);
    }
  }
}

TEST(ConceptBankTest, SurfacePoolsDisjointPerAspect) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  // Table-side and query-side pools of the same aspect never share words.
  for (int32_t aspect = 0; aspect < 18; ++aspect) {
    std::set<std::string> table(bank.TableSurfaces(aspect).begin(),
                                bank.TableSurfaces(aspect).end());
    for (const auto& q : bank.QuerySurfaces(aspect)) {
      EXPECT_EQ(table.count(q), 0u) << q;
    }
  }
}

TEST(ConceptBankTest, SurfacesRegisteredInLexicon) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  for (const auto& surface : bank.TableSurfaces(0)) {
    int32_t concept_id = bank.lexicon()->ConceptOf(surface);
    ASSERT_NE(concept_id, embed::kNoConcept);
    EXPECT_EQ(bank.lexicon()->AspectOfConcept(concept_id), 0);
  }
}

TEST(ConceptBankTest, DeterministicGivenSeed) {
  ConceptBank a = ConceptBank::Generate(SmallBankOptions());
  ConceptBank b = ConceptBank::Generate(SmallBankOptions());
  EXPECT_EQ(a.TableSurfaces(3), b.TableSurfaces(3));
  EXPECT_EQ(a.filler(), b.filler());
}

TEST(ConceptBankTest, ZipfFillerSkewsUsage) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  Rng rng(42);
  std::unordered_map<std::string, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[bank.SampleFiller(&rng)];
  // The most common word should appear far more often than the median.
  int max_count = 0;
  for (const auto& [w, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 5000 / 100 * 3);
}

// ---------- Corpus generator ----------

TEST(CorpusGeneratorTest, ShapeAndGroundTruthAligned) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  CorpusOptions options = WikiTablesCorpusOptions();
  options.num_tables = 120;
  GeneratedCorpus corpus = GenerateCorpus(bank, options);
  EXPECT_EQ(corpus.federation.size(), 120u);
  EXPECT_EQ(corpus.table_topic.size(), 120u);
  EXPECT_EQ(corpus.table_aspect.size(), 120u);
  EXPECT_EQ(corpus.table_is_stub.size(), 120u);
  EXPECT_EQ(corpus.table_secondary_aspect.size(), 120u);
  for (size_t t = 0; t < 120; ++t) {
    const auto& rel = corpus.federation.relation(t);
    EXPECT_GT(rel.num_rows(), 0u);
    EXPECT_GT(rel.num_columns(), 0u);
    EXPECT_GE(corpus.table_topic[t], 0);
    if (!corpus.table_is_stub[t]) {
      EXPECT_GE(corpus.table_aspect[t], 0);
      EXPECT_EQ(bank.TopicOfAspect(corpus.table_aspect[t]),
                corpus.table_topic[t]);
    } else {
      EXPECT_EQ(corpus.table_aspect[t], -1);
    }
  }
}

TEST(CorpusGeneratorTest, WikiTablesNumericFractionNearTarget) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  CorpusOptions options = WikiTablesCorpusOptions();
  options.num_tables = 150;
  GeneratedCorpus corpus = GenerateCorpus(bank, options);
  double numeric = 0, total = 0;
  for (const auto& rel : corpus.federation.relations()) {
    numeric += rel.NumericCellFraction() * rel.num_cells();
    total += rel.num_cells();
  }
  // The paper reports 26.9% numeric for WikiTables; ours targets ~25%.
  EXPECT_NEAR(numeric / total, 0.27, 0.12);
}

TEST(CorpusGeneratorTest, EdpMoreNumericThanWikiTables) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  CorpusOptions wiki = WikiTablesCorpusOptions();
  wiki.num_tables = 100;
  CorpusOptions edp = EdpCorpusOptions();
  edp.num_tables = 100;
  auto frac = [](const GeneratedCorpus& c) {
    double numeric = 0, total = 0;
    for (const auto& rel : c.federation.relations()) {
      numeric += rel.NumericCellFraction() * rel.num_cells();
      total += rel.num_cells();
    }
    return numeric / total;
  };
  double wiki_frac = frac(GenerateCorpus(bank, wiki));
  double edp_frac = frac(GenerateCorpus(bank, edp));
  EXPECT_GT(edp_frac, wiki_frac + 0.1);
}

TEST(CorpusGeneratorTest, EdpStyleUsesDescriptions) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  CorpusOptions edp = EdpCorpusOptions();
  edp.num_tables = 30;
  GeneratedCorpus corpus = GenerateCorpus(bank, edp);
  for (const auto& rel : corpus.federation.relations()) {
    EXPECT_FALSE(rel.description.empty());
    EXPECT_TRUE(rel.page_title.empty());
  }
}

TEST(CorpusGeneratorTest, StubFractionNearConfigured) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  CorpusOptions options = WikiTablesCorpusOptions();
  options.num_tables = 600;
  options.stub_table_probability = 0.2;
  GeneratedCorpus corpus = GenerateCorpus(bank, options);
  size_t stubs = 0;
  for (bool s : corpus.table_is_stub) stubs += s;
  EXPECT_NEAR(static_cast<double>(stubs) / 600, 0.2, 0.06);
}

TEST(CorpusGeneratorTest, TopicalContentPresent) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  CorpusOptions options = WikiTablesCorpusOptions();
  options.num_tables = 40;
  GeneratedCorpus corpus = GenerateCorpus(bank, options);
  text::Tokenizer tok;
  for (size_t t = 0; t < 40; ++t) {
    if (corpus.table_is_stub[t]) continue;
    int32_t aspect = corpus.table_aspect[t];
    std::set<std::string> pool;
    for (const auto& s : bank.TableSurfaces(aspect)) pool.insert(s);
    for (const auto& s : bank.QuerySurfaces(aspect)) pool.insert(s);
    size_t hits = 0;
    for (const auto& cell : corpus.federation.relation(t).FlattenedCells()) {
      for (const auto& token : tok.Tokenize(cell)) {
        hits += pool.count(token);
      }
    }
    EXPECT_GT(hits, 0u) << "table " << t << " has no aspect content";
  }
}

// ---------- Query generator ----------

TEST(QueryGeneratorTest, ClassBudgetsRespected) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  QuerySetOptions options;
  options.per_class = 15;
  auto queries = GenerateQueries(bank, options);
  ASSERT_EQ(queries.size(), 45u);
  text::Tokenizer tok;
  for (const auto& q : queries) {
    size_t tokens = tok.CountTokens(q.text);
    switch (q.cls) {
      case QueryClass::kShort:
        EXPECT_GE(tokens, 2u);
        EXPECT_LE(tokens, 3u);
        break;
      case QueryClass::kModerate:
        EXPECT_GE(tokens, 8u);
        EXPECT_LE(tokens, 30u);
        break;
      case QueryClass::kLong:
        EXPECT_GE(tokens, 30u);
        EXPECT_LE(tokens, 300u);
        break;
    }
    EXPECT_EQ(tokens, q.num_keywords);
  }
}

TEST(QueryGeneratorTest, UniqueIdsAndValidIntents) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  QuerySetOptions options;
  options.per_class = 10;
  auto queries = GenerateQueries(bank, options);
  std::set<ir::QueryId> ids;
  for (const auto& q : queries) {
    ids.insert(q.id);
    EXPECT_GE(q.topic, 0);
    EXPECT_LT(q.topic, 6);
    EXPECT_EQ(bank.TopicOfAspect(q.aspect), q.topic);
  }
  EXPECT_EQ(ids.size(), queries.size());
}

TEST(QueryGeneratorTest, ShortQueriesCarryAspectVocabulary) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  QuerySetOptions options;
  options.per_class = 10;
  auto queries = GenerateQueries(bank, options);
  text::Tokenizer tok;
  for (const auto& q : queries) {
    if (q.cls != QueryClass::kShort) continue;
    std::set<std::string> vocab;
    for (const auto& s : bank.QuerySurfaces(q.aspect)) vocab.insert(s);
    for (const auto& s : bank.TableSurfaces(q.aspect)) vocab.insert(s);
    for (const auto& s : bank.TopicQuerySurfaces(q.topic)) vocab.insert(s);
    for (const auto& s : bank.TopicTableSurfaces(q.topic)) vocab.insert(s);
    size_t hits = 0;
    for (const auto& token : tok.Tokenize(q.text)) hits += vocab.count(token);
    EXPECT_GT(hits, 0u) << q.text;
  }
}

// ---------- Qrels ----------

TEST(QrelsGenerationTest, GradesFollowGroundTruth) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  CorpusOptions corpus_options = WikiTablesCorpusOptions();
  corpus_options.num_tables = 150;
  GeneratedCorpus corpus = GenerateCorpus(bank, corpus_options);
  QuerySetOptions query_options;
  query_options.per_class = 5;
  auto queries = GenerateQueries(bank, query_options);
  ir::Qrels qrels = MakeQrels(corpus, queries, {});

  for (const auto& q : queries) {
    for (size_t t = 0; t < corpus.federation.size(); ++t) {
      int grade = qrels.Grade(q.id, static_cast<ir::DocId>(t));
      if (corpus.table_is_stub[t]) {
        EXPECT_EQ(grade, 0);
      } else if (corpus.table_aspect[t] == q.aspect) {
        EXPECT_EQ(grade, 2);
      } else if (corpus.table_topic[t] != q.topic &&
                 corpus.table_secondary_aspect[t] != q.aspect) {
        EXPECT_EQ(grade, 0);
      }
    }
  }
}

TEST(QrelsGenerationTest, PartialCapRespected) {
  ConceptBank bank = ConceptBank::Generate(SmallBankOptions());
  CorpusOptions corpus_options = WikiTablesCorpusOptions();
  corpus_options.num_tables = 200;
  GeneratedCorpus corpus = GenerateCorpus(bank, corpus_options);
  QuerySetOptions query_options;
  query_options.per_class = 4;
  auto queries = GenerateQueries(bank, query_options);
  QrelsOptions qrels_options;
  qrels_options.max_partial_per_query = 3;
  ir::Qrels qrels = MakeQrels(corpus, queries, qrels_options);
  for (const auto& q : queries) {
    size_t partial = 0;
    for (size_t t = 0; t < corpus.federation.size(); ++t) {
      if (qrels.Grade(q.id, static_cast<ir::DocId>(t)) == 1 &&
          corpus.table_topic[t] == q.topic &&
          corpus.table_secondary_aspect[t] != q.aspect) {
        ++partial;
      }
    }
    EXPECT_LE(partial, 3u);
  }
}

// ---------- Workload & views ----------

TEST(WorkloadTest, GenerateBundlesEverything) {
  WorkloadOptions options = WikiTablesWorkload(100);
  options.bank = SmallBankOptions();
  options.queries.per_class = 5;
  Workload wl = Workload::Generate(options);
  EXPECT_EQ(wl.corpus.federation.size(), 100u);
  EXPECT_EQ(wl.queries.size(), 15u);
  EXPECT_GT(wl.qrels.num_pairs(), 0u);
  EXPECT_EQ(wl.QueriesOf(QueryClass::kShort).size(), 5u);
}

TEST(WorkloadTest, ViewRemapsQrels) {
  WorkloadOptions options = WikiTablesWorkload(120);
  options.bank = SmallBankOptions();
  options.queries.per_class = 5;
  Workload wl = Workload::Generate(options);
  Workload::View view = wl.MakeView(0.5, 99);
  EXPECT_EQ(view.federation.size(), 60u);
  EXPECT_EQ(view.original_ids.size(), 60u);
  EXPECT_EQ(view.table_topic.size(), 60u);
  // Every remapped positive judgment matches the original grade.
  for (const auto& q : wl.queries) {
    for (table::RelationId v = 0; v < view.federation.size(); ++v) {
      int view_grade = view.qrels.Grade(q.id, v);
      int orig_grade = wl.qrels.Grade(q.id, view.original_ids[v]);
      if (view_grade > 0 || orig_grade > 0) {
        EXPECT_EQ(view_grade, orig_grade);
      }
    }
  }
}

TEST(WorkloadTest, FullViewEquivalentToOriginal) {
  WorkloadOptions options = WikiTablesWorkload(60);
  options.bank = SmallBankOptions();
  options.queries.per_class = 3;
  Workload wl = Workload::Generate(options);
  Workload::View view = wl.MakeView(1.0, 1);
  EXPECT_EQ(view.federation.size(), wl.corpus.federation.size());
}

TEST(WorkloadTest, EdpPresetDiffersFromWikiTables) {
  WorkloadOptions wiki = WikiTablesWorkload(50);
  WorkloadOptions edp = EdpWorkload(50);
  wiki.bank = SmallBankOptions();
  edp.bank = SmallBankOptions();
  edp.bank.seed = 707;
  Workload a = Workload::Generate(wiki);
  Workload b = Workload::Generate(edp);
  EXPECT_TRUE(a.corpus.federation.relation(0).description.empty());
  EXPECT_FALSE(b.corpus.federation.relation(0).description.empty());
}

TEST(ExportTest, WritesTablesQueriesQrels) {
  WorkloadOptions options = WikiTablesWorkload(25);
  options.bank = SmallBankOptions();
  options.queries.per_class = 3;
  Workload wl = Workload::Generate(options);
  auto dir = std::filesystem::temp_directory_path() / "mira_export_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(ExportWorkload(wl, dir.string()).ok());

  // Every table re-parses to the original shape.
  for (table::RelationId rid = 0; rid < wl.corpus.federation.size(); ++rid) {
    auto path = dir / "tables" / StrFormat("table_%05u.csv", rid);
    auto parsed = table::ReadCsvFile(path.string()).MoveValue();
    const auto& original = wl.corpus.federation.relation(rid);
    EXPECT_EQ(parsed.num_rows(), original.num_rows()) << rid;
    EXPECT_EQ(parsed.num_columns(), original.num_columns()) << rid;
    if (original.num_rows() > 0) {
      EXPECT_EQ(parsed.Cell(0, 0), original.Cell(0, 0));
    }
  }

  // Qrels round-trip through the TREC reader.
  Result<ir::Qrels> qrels = ir::ReadQrelsFile((dir / "qrels.txt").string());
  ASSERT_TRUE(qrels.ok()) << qrels.status().ToString();
  EXPECT_EQ(qrels->num_pairs(), wl.qrels.num_pairs());

  // Queries file has one line per query.
  std::ifstream in(dir / "queries.tsv");
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, wl.queries.size());

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mira::datagen
