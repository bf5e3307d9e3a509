// Reproduces the §5.3 case study: for the query "Climate Change Effects
// Europe 2020", ExS's whole-table averaging favors broad "global climate"
// tables, while CTS's cluster-targeted search pins the Europe-2020-specific
// tables to the top.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/concept_bank.h"
#include "discovery/engine.h"
#include "discovery/exhaustive_search.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "vecmath/simd.h"

namespace {

using namespace mira;

struct CaseStudy {
  table::Federation federation;
  std::shared_ptr<embed::Lexicon> lexicon;
  std::vector<std::string> names;
  std::vector<int> relevance;  // 2 = europe-2020 specific, 1 = related, 0 = no
};

// Climate lexicon: the "europe effects" aspect vs sibling aspects.
CaseStudy MakeCaseStudy() {
  CaseStudy cs;
  cs.lexicon = std::make_shared<embed::Lexicon>();
  int32_t climate = cs.lexicon->AddTopic("climate");
  int32_t europe = cs.lexicon->AddAspect(climate, "europe_effects");
  int32_t global = cs.lexicon->AddAspect(climate, "global_trends");
  int32_t policy = cs.lexicon->AddAspect(climate, "policy");

  auto add_concept = [&](int32_t aspect, const char* name,
                     std::initializer_list<const char*> surfaces) {
    int32_t id = cs.lexicon->AddConcept(cs.lexicon->TopicOfAspect(aspect),
                                        name, aspect);
    for (const char* s : surfaces) cs.lexicon->AddSurface(id, s);
  };
  add_concept(europe, "climate_change",
          {"climate", "warming", "climate-change"});
  add_concept(europe, "europe", {"europe", "european", "eu"});
  add_concept(europe, "heatwave", {"heatwave", "heat-wave", "canicule"});
  add_concept(europe, "drought", {"drought", "aridity"});
  add_concept(global, "global", {"global", "worldwide", "planetary"});
  add_concept(global, "emissions", {"emissions", "co2", "greenhouse"});
  add_concept(global, "sea_level", {"sea-level", "ocean-rise"});
  add_concept(policy, "agreement", {"agreement", "accord", "treaty"});
  add_concept(policy, "target", {"target", "pledge", "commitment"});

  auto add = [&](const char* name, int grade,
                 std::vector<std::string> schema,
                 std::vector<std::vector<std::string>> rows) {
    table::Relation r;
    r.name = name;
    r.schema = std::move(schema);
    for (auto& row : rows) r.AddRow(std::move(row)).Abort("case study");
    cs.federation.AddRelation(std::move(r));
    cs.names.emplace_back(name);
    cs.relevance.push_back(grade);
  };

  // The targets: Europe-specific 2020 effects tables.
  add("EuropeEffects2020", 2, {"Region", "Year", "Event", "Impact"},
      {{"europe", "2020", "heatwave", "severe"},
       {"european", "2020", "drought", "moderate"},
       {"eu", "2020", "warming", "high"}});
  add("EuropeDamage2020", 2, {"Country", "Year", "Effect", "Cost"},
      {{"european", "2020", "heatwave", "4.1"},
       {"europe", "2020", "aridity", "2.7"}});

  // Distractor 1 (the §5.3 trap): a broad global almanac whose *every* cell
  // is climate vocabulary — under whole-table averaging it looks great.
  add("GlobalClimateAlmanac", 1, {"Theme", "Note"},
      {{"global", "warming"},
       {"planetary", "emissions"},
       {"worldwide", "co2"},
       {"greenhouse", "sea-level"},
       {"climate", "ocean-rise"}});

  // Distractor 2: Europe, wrong decade.
  add("EuropeEffects1995", 1, {"Region", "Year", "Event"},
      {{"europe", "1995", "heatwave"}, {"european", "1996", "drought"}});

  // Distractor 3: policy table, 2020 but no effects.
  add("ClimatePolicy2020", 1, {"Year", "Instrument"},
      {{"2020", "accord"}, {"2020", "pledge"}, {"2021", "treaty"}});

  // Irrelevant tables.
  add("FootballResults", 0, {"Team", "Points"},
      {{"harriers", "42"}, {"rovers", "38"}, {"wanderers", "35"}});
  add("RecipeBook", 0, {"Dish", "Minutes"},
      {{"goulash", "90"}, {"paella", "45"}, {"risotto", "35"}});

  // Distractor bulk: two foreign topics plus random-vocabulary tables, so
  // the candidate budgets of ANNS/CTS actually select (on a corpus this is
  // what separates mean-of-retrieved from whole-table averaging).
  int32_t sports = cs.lexicon->AddTopic("sports");
  int32_t leagues = cs.lexicon->AddAspect(sports, "leagues");
  add_concept(leagues, "club", {"club", "team", "squad"});
  add_concept(leagues, "match", {"match", "fixture", "derby"});
  int32_t economy = cs.lexicon->AddTopic("economy");
  int32_t markets = cs.lexicon->AddAspect(economy, "markets");
  add_concept(markets, "stock", {"stock", "equity", "share"});
  add_concept(markets, "rate", {"rate", "yield", "interest"});

  Rng rng(777);
  const std::vector<std::string> pools[2] = {
      {"club", "team", "squad", "match", "fixture", "derby"},
      {"stock", "equity", "share", "rate", "yield", "interest"}};
  for (int t = 0; t < 50; ++t) {
    table::Relation r;
    r.name = "distractor_" + std::to_string(t);
    r.schema = {datagen::MakePseudoWord(&rng, 2),
                datagen::MakePseudoWord(&rng, 2),
                datagen::MakePseudoWord(&rng, 2)};
    const auto& pool = pools[t % 2];
    for (int row = 0; row < 5; ++row) {
      r.AddRow({pool[rng.NextBounded(pool.size())],
                datagen::MakePseudoWord(&rng, 3),
                std::to_string(1900 + rng.NextBounded(130))})
          .Abort("case study");
    }
    cs.names.push_back(r.name);
    cs.federation.AddRelation(std::move(r));
    cs.relevance.push_back(0);
  }
  return cs;
}

// A 4-thread faithful ExS over the case-study federation: each relation is
// re-encoded on a pool worker, so its exs.scan_relation spans land on worker
// lanes and its time goes to encoder and vecmath kernels. Used for the
// cross-thread trace export below and as the scan-heavy --hold workload
// (whose /profilez captures should show vecmath frames).
// `engine` must outlive the returned scanner (it borrows the federation,
// corpus and encoder).
std::unique_ptr<discovery::ExhaustiveSearcher> MakePooledScanner(
    const discovery::DiscoveryEngine& engine) {
  discovery::ExsOptions exs;
  exs.num_threads = 4;
  // Non-owning aliases: the engine outlives the scanner by contract.
  return std::make_unique<discovery::ExhaustiveSearcher>(
      &engine.federation(),
      std::shared_ptr<const discovery::CorpusEmbeddings>(
          std::shared_ptr<void>(), &engine.corpus()),
      std::shared_ptr<const embed::SemanticEncoder>(std::shared_ptr<void>(),
                                                    &engine.encoder()),
      exs);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ServeOptions serve = bench::ParseServeArgs(argc, argv);
  if (serve.parse_error) return 2;
  CaseStudy cs = MakeCaseStudy();
  discovery::EngineOptions options;
  options.encoder.dim = 256;
  options.cts.umap.n_epochs = 80;
  // Tight candidate budgets: retrieval must *select* for the focused methods
  // to differ from whole-table averaging on this small federation.
  options.anns.cell_candidates = 48;
  options.cts.cell_candidates = 48;
  options.cts.cluster_candidates = 4;
  auto engine =
      discovery::DiscoveryEngine::Build(cs.federation, cs.lexicon, options)
          .MoveValue();

  const std::string query = "climate-change effects europe 2020";
  std::printf("Case study (5.3): query \"%s\"\n\n", query.c_str());

  bench::BenchJsonWriter json("case_study");
  json.SetMeta("query", query);
  json.SetMeta("tables", static_cast<double>(cs.federation.size()));
  json.SetMeta("simd_tier", std::string(vecmath::SimdTierName(
                                vecmath::ActiveSimdTier())));

  for (auto method : {discovery::Method::kExhaustive, discovery::Method::kAnns,
                      discovery::Method::kCts}) {
    discovery::DiscoveryOptions search;
    search.top_k = 5;
    auto ranking = engine->Search(method, query, search).MoveValue();
    std::printf("%-4s:", std::string(discovery::MethodToString(method)).c_str());
    for (const auto& hit : ranking) {
      std::printf("  %s(g%d,%.3f)", cs.names[hit.relation].c_str(),
                  cs.relevance[hit.relation], hit.score);
    }
    std::printf("\n");
    // Rank of the first fully-specific table.
    size_t rank = 0;
    for (size_t i = 0; i < ranking.size(); ++i) {
      if (cs.relevance[ranking[i].relation] == 2) {
        rank = i + 1;
        break;
      }
    }
    std::printf("      first Europe-2020-specific table at rank %zu\n", rank);
    json.AddRow();
    json.Set("method", std::string(discovery::MethodToString(method)));
    json.Set("first_specific_rank", static_cast<double>(rank));
    if (!ranking.empty()) {
      json.Set("top1", cs.names[ranking.front().relation]);
      json.Set("top1_score", static_cast<double>(ranking.front().score));
    }
  }
  json.Write().Abort("bench json");

  // Traced queries: print the CTS span tree, and export all three methods
  // (plus a deliberately large parallel ExS scan) as a Chrome trace_event
  // file — load TRACE_case_study.json in chrome://tracing / ui.perfetto.dev.
  // CI validates its shape with tools/obs_checks.py trace.
  {
    obs::ChromeTraceWriter writer;
    for (auto method :
         {discovery::Method::kExhaustive, discovery::Method::kAnns,
          discovery::Method::kCts}) {
      discovery::DiscoveryOptions search;
      search.top_k = 5;
      auto traced = engine->SearchTraced(method, query, search).MoveValue();
      if (method == discovery::Method::kCts && !traced.trace.empty()) {
        std::printf("\nCTS query trace:\n%s", traced.trace.ToString().c_str());
      }
      obs::TraceAnnotations annotations;
      annotations.method = std::string(discovery::MethodToString(method));
      annotations.degraded = traced.ranking.degraded;
      annotations.partial = traced.ranking.partial;
      writer.AddQuery(traced.trace, annotations);
    }

    // The engine's ExS scans serially, so also trace one query through a
    // 4-thread faithful scan: its exs.scan_relation spans run on pool
    // workers and exercise cross-thread trace propagation end to end (the
    // CI check requires worker-lane spans in the exported file).
    {
      auto scanner = MakePooledScanner(*engine);
      obs::QueryTrace trace;
      {
        obs::ScopedTrace collect(&trace);
        obs::TraceSpan root("query");
        root.SetLabel("ExS");
        scanner->Search(query, {}).MoveValue();
      }
      obs::TraceAnnotations annotations;
      annotations.method = "ExS";
      writer.AddQuery(trace, annotations);
    }

    const char* dir = std::getenv("MIRA_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/TRACE_case_study.json"
                           : "TRACE_case_study.json";
    writer.WriteFile(path).Abort("trace json");
    std::fprintf(stderr, "[bench] wrote %s (%zu queries, %zu events)\n",
                 path.c_str(), writer.num_queries(), writer.num_events());
  }

  // Dump the process metric registry (query counters/latency histograms,
  // build gauges) next to the bench JSON; CI validates its shape with
  // tools/obs_checks.py metrics.
  {
    const char* dir = std::getenv("MIRA_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/METRICS_case_study.json"
                           : "METRICS_case_study.json";
    obs::MetricRegistry::Global().WriteJsonFile(path).Abort("metrics json");
    std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
  }

  std::printf(
      "\nExpected shape (paper 5.3): CTS places the Europe-2020-specific\n"
      "tables first, while ExS/ANNS are drawn toward broad or wrong-year\n"
      "climate tables (\"general global climate change data or from\n"
      "different years can rank higher\").\n");

  // Live-introspection tail (no-op without --debug-server/--hold): serve the
  // debugz pages while driving a scan-heavy workload — the pooled faithful
  // scan (encoder- and vecmath-bound, what /profilez should surface) plus
  // the three traced engine methods (feeding /querylogz and /tracez).
  if (serve.server || serve.hold) {
    auto scanner = MakePooledScanner(*engine);
    bench::ServeAndHold(serve, engine.get(), [&] {
      discovery::DiscoveryOptions search;
      search.top_k = 5;
      for (auto method :
           {discovery::Method::kExhaustive, discovery::Method::kAnns,
            discovery::Method::kCts}) {
        engine->SearchTraced(method, query, search).MoveValue();
      }
      obs::QueryTrace trace;
      obs::ScopedTrace collect(&trace);
      obs::TraceSpan root("query");
      root.SetLabel("ExS-hold");
      scanner->Search(query, {}).MoveValue();
    }).Abort("debug server");
  }
  return 0;
}
