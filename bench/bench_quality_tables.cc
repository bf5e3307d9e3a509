// Reproduces Tables 1-3: quality of long, moderate and short query results
// (MAP, MRR, NDCG@k for all eight methods over the LD/MD/SD partitions). One
// Harness serves all three, so each partition's method stack is built once.

#include "harness.h"

int main() {
  using mira::datagen::QueryClass;
  struct Table {
    const char* title;
    QueryClass cls;
    const char* bench_name;
  };
  const Table tables[] = {
      {"Table 1: Quality of long query results", QueryClass::kLong,
       "table1_quality_long"},
      {"Table 2: Quality of moderate query results", QueryClass::kModerate,
       "table2_quality_moderate"},
      {"Table 3: Quality of short query results", QueryClass::kShort,
       "table3_quality_short"},
  };
  mira::bench::Harness harness;
  for (const Table& table : tables) {
    harness.PrintQualityTable(table.title, table.cls);
    harness.WriteJson(table.bench_name, table.cls).Abort("bench json");
  }
  return 0;
}
