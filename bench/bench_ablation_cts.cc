// CTS design-choice ablations (plain table output): cluster-candidate count,
// UMAP target dimensionality, and PQ on/off for ANNS — quality (MAP) and
// mean query latency on a mid-size workload. These probe the design choices
// DESIGN.md calls out rather than reproducing a specific paper artifact.

#include <cstdio>
#include <memory>

#include "common/timer.h"
#include "datagen/workload.h"
#include "discovery/anns_search.h"
#include "discovery/cts_search.h"
#include "discovery/engine.h"
#include "harness.h"
#include "ir/metrics.h"
#include "obs/metrics.h"
#include "vecmath/simd.h"

namespace {

using namespace mira;

struct Fixture {
  datagen::Workload workload;
  std::shared_ptr<const discovery::CorpusEmbeddings> corpus;
  std::shared_ptr<const embed::SemanticEncoder> encoder;
};

Fixture MakeFixture() {
  datagen::WorkloadOptions options = datagen::WikiTablesWorkload(600);
  options.queries.per_class = 10;
  Fixture fx{datagen::Workload::Generate(options), nullptr, nullptr};

  embed::EncoderOptions encoder_options;
  encoder_options.dim = 160;
  auto encoder = std::make_shared<embed::SemanticEncoder>(
      encoder_options, fx.workload.bank.lexicon());
  auto frequencies = std::make_shared<embed::TokenFrequencies>();
  for (const auto& relation : fx.workload.corpus.federation.relations()) {
    frequencies->AddText(relation.ConsolidatedText());
  }
  encoder->SetTokenFrequencies(std::move(frequencies));
  fx.encoder = encoder;

  ThreadPool pool;
  fx.corpus = std::make_shared<const discovery::CorpusEmbeddings>(
      discovery::CorpusEmbeddings::Build(fx.workload.corpus.federation,
                                         *encoder, &pool)
          .MoveValue());
  return fx;
}

struct Outcome {
  double map;
  double mean_ms;
  double p50_ms;
  double p99_ms;
};

Outcome Evaluate(const Fixture& fx, const discovery::Searcher& searcher) {
  discovery::DiscoveryOptions options;
  options.top_k = 100;
  std::unordered_map<ir::QueryId, std::vector<ir::DocId>> run;
  obs::Histogram latency;
  searcher.Search(fx.workload.queries.front().text, options).MoveValue();
  for (const auto& query : fx.workload.queries) {
    WallTimer timer;
    auto ranking = searcher.Search(query.text, options).MoveValue();
    latency.Record(timer.ElapsedMillis());
    std::vector<ir::DocId> docs;
    for (const auto& hit : ranking) docs.push_back(hit.relation);
    run[query.id] = std::move(docs);
  }
  obs::Histogram::Snapshot snapshot = latency.TakeSnapshot();
  return {ir::Evaluate(fx.workload.qrels, run).map, snapshot.mean(),
          snapshot.p50(), snapshot.p99()};
}

}  // namespace

int main() {
  Fixture fx = MakeFixture();
  std::printf("CTS/ANNS design ablations (600 tables, %zu cells, dim 160)\n\n",
              fx.corpus->num_cells());

  bench::BenchJsonWriter json("ablation_cts");
  json.SetMeta("tables", 600.0);
  json.SetMeta("dim", 160.0);
  json.SetMeta("cells", static_cast<double>(fx.corpus->num_cells()));
  json.SetMeta("simd_tier", std::string(vecmath::SimdTierName(
                                vecmath::ActiveSimdTier())));
  auto record = [&json](const std::string& sweep, double value,
                        const Outcome& out) {
    json.AddRow();
    json.Set("sweep", sweep);
    json.Set("value", value);
    json.Set("map", out.map);
    json.Set("mean_query_ms", out.mean_ms);
    json.Set("p50_ms", out.p50_ms);
    json.Set("p99_ms", out.p99_ms);
  };

  // --- cluster_candidates sweep ---
  std::printf("%-34s %8s %10s %10s\n", "configuration", "MAP", "ms/query",
              "clusters");
  for (size_t candidates : {2, 4, 8, 16, 32}) {
    discovery::CtsOptions options;
    options.cluster_candidates = candidates;
    auto cts =
        discovery::CtsSearcher::Build(fx.corpus, fx.encoder, options)
            .MoveValue();
    Outcome out = Evaluate(fx, *cts);
    std::printf("CTS cluster_candidates=%-12zu %8.3f %10.3f %10zu\n",
                candidates, out.map, out.mean_ms, cts->num_clusters());
    record("cluster_candidates", static_cast<double>(candidates), out);
  }
  std::printf("\n");

  // --- UMAP target dimension sweep ---
  for (size_t dim : {2, 5, 10}) {
    discovery::CtsOptions options;
    options.umap.target_dim = dim;
    auto cts =
        discovery::CtsSearcher::Build(fx.corpus, fx.encoder, options)
            .MoveValue();
    Outcome out = Evaluate(fx, *cts);
    std::printf("CTS umap_dim=%-21zu %8.3f %10.3f %10zu\n", dim, out.map,
                out.mean_ms, cts->num_clusters());
    record("umap_dim", static_cast<double>(dim), out);
  }
  std::printf("\n");

  // --- HDBSCAN min_cluster_size sweep ---
  for (size_t mcs : {4, 8, 16, 32}) {
    discovery::CtsOptions options;
    options.hdbscan.min_cluster_size = mcs;
    auto cts =
        discovery::CtsSearcher::Build(fx.corpus, fx.encoder, options)
            .MoveValue();
    Outcome out = Evaluate(fx, *cts);
    std::printf("CTS min_cluster_size=%-13zu %8.3f %10.3f %10zu\n", mcs,
                out.map, out.mean_ms, cts->num_clusters());
    record("min_cluster_size", static_cast<double>(mcs), out);
  }
  std::printf("\n");

  // --- ANNS with and without PQ compression ---
  for (bool use_pq : {true, false}) {
    discovery::AnnsOptions options;
    options.use_pq = use_pq;
    auto anns =
        discovery::AnnsSearcher::Build(fx.corpus, fx.encoder, options)
            .MoveValue();
    Outcome out = Evaluate(fx, *anns);
    std::printf("ANNS pq=%-26s %8.3f %10.3f %9.1fMB\n",
                use_pq ? "on (paper config)" : "off", out.map, out.mean_ms,
                static_cast<double>(anns->IndexMemoryBytes()) / (1 << 20));
    record("anns_pq", use_pq ? 1.0 : 0.0, out);
  }
  std::printf("\n");

  // --- ExS faithful vs cached embeddings ---
  for (bool cached : {false, true}) {
    discovery::ExsOptions options;
    options.reuse_corpus_embeddings = cached;
    discovery::ExhaustiveSearcher exs(&fx.workload.corpus.federation, fx.corpus,
                                      fx.encoder, options);
    Outcome out = Evaluate(fx, exs);
    std::printf("ExS %-30s %8.3f %10.3f\n",
                cached ? "cached embeddings (ablation)" : "per-query embedding",
                out.map, out.mean_ms);
    record("exs_cached", cached ? 1.0 : 0.0, out);
  }
  json.Write().Abort("bench json");
  return 0;
}
