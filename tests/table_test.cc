// Unit tests for src/table: relation model, federation subsets, CSV parsing.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/rng.h"
#include "table/csv_reader.h"
#include "table/relation.h"

namespace mira::table {
namespace {

Relation MakeCovidWho() {
  Relation r;
  r.name = "WHO";
  r.schema = {"Region", "Date", "Vaccine", "Dosage"};
  r.AddRow({"North America", "2021-01-01", "Comirnaty", "First"}).Abort("");
  r.AddRow({"Europe", "2021-02-01", "Vaxzevria", "Second"}).Abort("");
  return r;
}

// ---------- Relation ----------

TEST(RelationTest, AddRowValidatesArity) {
  Relation r = MakeCovidWho();
  EXPECT_TRUE(r.AddRow({"only", "three", "cells"}).IsInvalidArgument());
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.num_columns(), 4u);
  EXPECT_EQ(r.num_cells(), 8u);
}

TEST(RelationTest, CellAccess) {
  Relation r = MakeCovidWho();
  EXPECT_EQ(r.Cell(0, 2), "Comirnaty");
  EXPECT_EQ(r.Cell(1, 0), "Europe");
}

TEST(RelationTest, FlattenedCellsRowMajor) {
  Relation r = MakeCovidWho();
  auto cells = r.FlattenedCells();
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0], "North America");
  EXPECT_EQ(cells[4], "Europe");
}

TEST(RelationTest, ConsolidatedTextContainsSchemaAndCells) {
  Relation r = MakeCovidWho();
  r.caption = "vaccinations";
  std::string text = r.ConsolidatedText();
  EXPECT_NE(text.find("vaccinations"), std::string::npos);
  EXPECT_NE(text.find("Region"), std::string::npos);
  EXPECT_NE(text.find("Comirnaty"), std::string::npos);
}

TEST(RelationTest, NumericCellFraction) {
  Relation r;
  r.schema = {"a", "b"};
  r.AddRow({"1995", "text"}).Abort("");
  r.AddRow({"3.5", "more"}).Abort("");
  EXPECT_DOUBLE_EQ(r.NumericCellFraction(), 0.5);
  Relation empty;
  EXPECT_DOUBLE_EQ(empty.NumericCellFraction(), 0.0);
}

// ---------- Federation ----------

TEST(FederationTest, AddAndAccess) {
  Federation f;
  RelationId id0 = f.AddRelation(MakeCovidWho());
  RelationId id1 = f.AddRelation(MakeCovidWho());
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.relation(0).name, "WHO");
  EXPECT_EQ(f.TotalCells(), 16u);
}

TEST(FederationTest, SubsetSizesMatchPaperPartitions) {
  Federation f;
  for (int i = 0; i < 100; ++i) {
    Relation r = MakeCovidWho();
    r.name = "t" + std::to_string(i);
    f.AddRelation(std::move(r));
  }
  EXPECT_EQ(f.Subset(1.0, 1).size(), 100u);  // LD
  EXPECT_EQ(f.Subset(0.5, 1).size(), 50u);   // MD
  EXPECT_EQ(f.Subset(0.1, 1).size(), 10u);   // SD
}

TEST(FederationTest, SubsetKeepsOriginalIdsSorted) {
  Federation f;
  for (int i = 0; i < 40; ++i) {
    Relation r = MakeCovidWho();
    r.name = "t" + std::to_string(i);
    f.AddRelation(std::move(r));
  }
  std::vector<RelationId> kept;
  Federation sub = f.Subset(0.25, 7, &kept);
  ASSERT_EQ(kept.size(), 10u);
  for (size_t i = 1; i < kept.size(); ++i) EXPECT_LT(kept[i - 1], kept[i]);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(sub.relation(i).name, f.relation(kept[i]).name);
  }
}

TEST(FederationTest, SubsetDeterministicPerSeed) {
  Federation f;
  for (int i = 0; i < 30; ++i) {
    Relation r = MakeCovidWho();
    r.name = "t" + std::to_string(i);
    f.AddRelation(std::move(r));
  }
  std::vector<RelationId> a, b, c;
  f.Subset(0.3, 5, &a);
  f.Subset(0.3, 5, &b);
  f.Subset(0.3, 6, &c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---------- CSV ----------

TEST(CsvTest, BasicParse) {
  auto r = ParseCsv("a,b,c\n1,2,3\n4,5,6\n", "test").MoveValue();
  EXPECT_EQ(r.schema, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Cell(1, 2), "6");
}

TEST(CsvTest, QuotedFieldsWithCommasAndNewlines) {
  auto r = ParseCsv("name,notes\nalice,\"likes, commas\"\nbob,\"multi\nline\"\n",
                    "test")
               .MoveValue();
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Cell(0, 1), "likes, commas");
  EXPECT_EQ(r.Cell(1, 1), "multi\nline");
}

TEST(CsvTest, EscapedQuotes) {
  auto r = ParseCsv("q\n\"say \"\"hi\"\"\"\n", "test").MoveValue();
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Cell(0, 0), "say \"hi\"");
}

TEST(CsvTest, CrLfLineEndings) {
  auto r = ParseCsv("a,b\r\n1,2\r\n", "test").MoveValue();
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Cell(0, 1), "2");
}

TEST(CsvTest, TrimsUnquotedFields) {
  auto r = ParseCsv("a,b\n  x  , y\n", "test").MoveValue();
  EXPECT_EQ(r.Cell(0, 0), "x");
  EXPECT_EQ(r.Cell(0, 1), "y");
}

TEST(CsvTest, QuotedFieldsNotTrimmed) {
  auto r = ParseCsv("a\n\" padded \"\n", "test").MoveValue();
  EXPECT_EQ(r.Cell(0, 0), " padded ");
}

TEST(CsvTest, NoHeaderGeneratesColumnNames) {
  CsvOptions options;
  options.has_header = false;
  auto r = ParseCsv("1,2\n3,4\n", "test", options).MoveValue();
  EXPECT_EQ(r.schema, (std::vector<std::string>{"col0", "col1"}));
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST(CsvTest, RaggedRowRejected) {
  EXPECT_TRUE(ParseCsv("a,b\n1,2,3\n", "test").status().IsInvalidArgument());
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  EXPECT_TRUE(ParseCsv("a\n\"unclosed\n", "test").status().IsInvalidArgument());
}

TEST(CsvTest, EmptyInputYieldsEmptyRelation) {
  auto r = ParseCsv("", "test").MoveValue();
  EXPECT_EQ(r.num_rows(), 0u);
  EXPECT_EQ(r.num_columns(), 0u);
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto r = ParseCsv("a;b\n1;2\n", "test", options).MoveValue();
  EXPECT_EQ(r.Cell(0, 1), "2");
}

TEST(CsvTest, ReadFileNamesRelationAfterStem) {
  auto path = std::filesystem::temp_directory_path() / "who_vaccines.csv";
  {
    std::ofstream out(path);
    out << "Region,Vaccine\nEurope,Vaxzevria\n";
  }
  auto r = ReadCsvFile(path.string()).MoveValue();
  EXPECT_EQ(r.name, "who_vaccines");
  EXPECT_EQ(r.Cell(0, 1), "Vaxzevria");
  std::remove(path.c_str());
}

TEST(CsvTest, SeededMutationsParseOrFailTyped) {
  // A few hundred seeded byte flips, truncations and inserted quotes,
  // delimiters and newlines over a valid CSV. Each parse must return OK or
  // kInvalidArgument, and an OK relation must be rectangular; none may
  // crash (the sanitizer jobs run this binary).
  const std::string good =
      "Region,Date,\"Vaccine, trade name\",Notes\r\n"
      "North America,2021-01-01,Comirnaty,\"said \"\"first\"\"\"\n"
      "  Europe ,2021-02-01,Vaxzevria,\"two\nlines\"\n"
      "Asia,2021-03-01,CoronaVac,\n";
  ASSERT_TRUE(ParseCsv(good, "good").ok());
  constexpr char kInserts[] = {'"', ',', '\n', '\r', ';'};
  Rng rng(20261019);
  size_t parsed = 0, rejected = 0;
  for (int m = 0; m < 600; ++m) {
    std::string text = good;
    for (uint64_t edits = 1 + rng.NextBounded(4); edits > 0; --edits) {
      switch (rng.NextBounded(3)) {
        case 0: {
          const size_t at = rng.NextBounded(text.size());
          text[at] = static_cast<char>(text[at] ^ (1 << rng.NextBounded(8)));
          break;
        }
        case 1:
          text.resize(rng.NextBounded(text.size() + 1));
          break;
        default:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                         rng.NextBounded(text.size() + 1)),
                      kInserts[rng.NextBounded(sizeof(kInserts))]);
          break;
      }
      if (text.empty()) break;
    }
    CsvOptions options;
    options.has_header = m % 3 != 0;
    options.trim_fields = m % 2 == 0;
    auto relation = ParseCsv(text, "mutated", options);
    ASSERT_TRUE(relation.ok() || relation.status().IsInvalidArgument())
        << "mutation " << m << ": " << relation.status().ToString();
    if (!relation.ok()) {
      ++rejected;
      continue;
    }
    ++parsed;
    for (const auto& row : relation->rows) {
      ASSERT_EQ(row.size(), relation->num_columns()) << "mutation " << m;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_TRUE(ReadCsvFile("/no/such/file.csv").status().IsIoError());
}

}  // namespace
}  // namespace mira::table
