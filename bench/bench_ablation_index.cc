// Ablation microbenchmarks for the index substrate: HNSW parameter sweeps
// (M, efSearch) — search latency plus recall@10 against the exact oracle,
// and the index footprint.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <map>
#include <memory>
#include <unordered_set>

#include "common/rng.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "vecmath/vector_ops.h"

namespace {

using namespace mira;

constexpr size_t kN = 20000;
constexpr size_t kDim = 128;
constexpr size_t kClusters = 64;
constexpr size_t kK = 10;

const vecmath::Matrix& Data() {
  static const vecmath::Matrix data = [] {
    Rng rng(1234);
    vecmath::Matrix m(kN, kDim);
    vecmath::Matrix centers(kClusters, kDim);
    for (size_t c = 0; c < kClusters; ++c) {
      for (size_t j = 0; j < kDim; ++j) {
        centers.At(c, j) = static_cast<float>(rng.NextGaussian());
      }
      vecmath::NormalizeInPlace(centers.Row(c), kDim);
    }
    for (size_t i = 0; i < kN; ++i) {
      size_t c = i % kClusters;
      for (size_t j = 0; j < kDim; ++j) {
        m.At(i, j) =
            centers.At(c, j) + 0.3f * static_cast<float>(rng.NextGaussian());
      }
      vecmath::NormalizeInPlace(m.Row(i), kDim);
    }
    return m;
  }();
  return data;
}

const index::FlatIndex& Oracle() {
  static const index::FlatIndex& oracle = []() -> index::FlatIndex& {
    static index::FlatIndex flat(vecmath::Metric::kCosine);
    for (size_t i = 0; i < kN; ++i) {
      flat.Add(i, Data().RowVec(i)).Abort("oracle add");
    }
    flat.Build().Abort("oracle build");
    return flat;
  }();
  return oracle;
}

double RecallOf(const std::vector<vecmath::ScoredId>& hits,
                const std::vector<vecmath::ScoredId>& truth) {
  std::unordered_set<uint64_t> expected;
  for (const auto& t : truth) expected.insert(t.id);
  size_t found = 0;
  for (const auto& h : hits) found += expected.count(h.id);
  return expected.empty() ? 1.0
                          : static_cast<double>(found) / expected.size();
}

void BM_FlatSearch(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    vecmath::Vec q = Data().RowVec(rng.NextBounded(kN));
    benchmark::DoNotOptimize(Oracle().Search(q, {kK, 0}).MoveValue());
  }
  state.counters["recall@10"] = 1.0;
  state.counters["MiB"] =
      static_cast<double>(Oracle().MemoryUsage().total()) / (1 << 20);
}
BENCHMARK(BM_FlatSearch)->Unit(benchmark::kMicrosecond);

// HNSW: efSearch sweep at fixed M, and M sweep at fixed ef.
void BM_HnswSearch(benchmark::State& state) {
  const size_t M = static_cast<size_t>(state.range(0));
  const size_t ef = static_cast<size_t>(state.range(1));
  static std::map<size_t, std::unique_ptr<index::HnswIndex>> cache;
  auto it = cache.find(M);
  if (it == cache.end()) {
    index::HnswOptions options;
    options.M = M;
    options.ef_construction = 150;
    auto idx = std::make_unique<index::HnswIndex>(options);
    for (size_t i = 0; i < kN; ++i) {
      idx->Add(i, Data().RowVec(i)).Abort("hnsw add");
    }
    idx->Build().Abort("hnsw build");
    it = cache.emplace(M, std::move(idx)).first;
  }
  index::HnswIndex& idx = *it->second;

  Rng rng(9);
  double recall = 0;
  size_t queries = 0;
  for (auto _ : state) {
    vecmath::Vec q = Data().RowVec(rng.NextBounded(kN));
    auto hits = idx.Search(q, {kK, ef}).MoveValue();
    benchmark::DoNotOptimize(hits);
    state.PauseTiming();
    recall += RecallOf(hits, Oracle().Search(q, {kK, 0}).MoveValue());
    ++queries;
    state.ResumeTiming();
  }
  state.counters["recall@10"] = recall / static_cast<double>(queries);
  state.counters["MiB"] =
      static_cast<double>(idx.MemoryUsage().total()) / (1 << 20);
}
BENCHMARK(BM_HnswSearch)
    ->Args({16, 16})
    ->Args({16, 64})
    ->Args({16, 256})
    ->Args({8, 64})
    ->Args({32, 64})
    ->Unit(benchmark::kMicrosecond);

}  // namespace


// Replaces BENCHMARK_MAIN(): unless the caller passed --benchmark_out, the
// suite writes BENCH_ablation_index.json (into $MIRA_BENCH_JSON_DIR, or the
// working directory) so every bench binary leaves a machine-readable trace.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    const char* dir = std::getenv("MIRA_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/BENCH_ablation_index.json"
                           : "BENCH_ablation_index.json";
    out_flag = "--benchmark_out=" + path;
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
