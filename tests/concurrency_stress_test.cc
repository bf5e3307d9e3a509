// Concurrency stress tests for the parallel substrate: ThreadPool /
// ParallelFor, HnswIndex under parallel insert/query, and the engine build
// on a shared build pool. Designed to run
// under ThreadSanitizer (the `tsan` preset registers this binary); sizes are
// chosen so a TSan run on a small machine stays in the seconds range while
// still crossing well over 10k scheduled tasks.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "datagen/workload.h"
#include "discovery/corpus_embeddings.h"
#include "discovery/engine.h"
#include "embed/encoder.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "table/relation.h"
#include "vecmath/matrix.h"
#include "vecmath/simd.h"
#include "vecmath/vector_ops.h"

namespace mira {
namespace {

constexpr size_t kPoolThreads = 4;

// ---------- ThreadPool ----------

TEST(ThreadPoolStressTest, TenThousandTasksFromManyProducers) {
  ThreadPool pool(kPoolThreads);
  constexpr size_t kProducers = 4;
  constexpr size_t kTasksPerProducer = 2500;
  std::atomic<size_t> executed{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &executed] {
      for (size_t i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.WaitIdle();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolStressTest, WaitIdleFromManyThreadsObservesCompletion) {
  ThreadPool pool(kPoolThreads);
  std::atomic<size_t> executed{0};
  constexpr size_t kTasks = 2000;
  for (size_t i = 0; i < kTasks; ++i) {
    pool.Submit(
        [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
  }
  // All producers are done before the waiters start, so WaitIdle's contract
  // (meaningful barrier once submissions have stopped) applies.
  std::vector<std::thread> waiters;
  for (size_t w = 0; w < 3; ++w) {
    waiters.emplace_back([&pool, &executed, kTasks] {
      pool.WaitIdle();
      EXPECT_EQ(executed.load(), kTasks);
    });
  }
  for (auto& t : waiters) t.join();
}

TEST(ThreadPoolStressTest, DestructionUnderLoadDrainsQueue) {
  std::atomic<size_t> executed{0};
  constexpr size_t kTasks = 5000;
  {
    ThreadPool pool(kPoolThreads);
    for (size_t i = 0; i < kTasks; ++i) {
      pool.Submit(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor runs with most of the queue still pending.
  }
  EXPECT_EQ(executed.load(), kTasks);
}

// ---------- ParallelFor ----------

TEST(ParallelForStressTest, ConcurrentCallersDoNotBlockEachOther) {
  ThreadPool pool(kPoolThreads);
  constexpr size_t kCallers = 4;
  constexpr size_t kRange = 2000;
  std::vector<std::vector<uint8_t>> touched(kCallers,
                                            std::vector<uint8_t>(kRange, 0));

  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &touched, c] {
      ParallelFor(&pool, 0, kRange, [&touched, c](size_t i) {
        // Each caller owns its row, so plain writes are race-free iff
        // ParallelFor tracks its own completion correctly.
        touched[c][i] = 1;
      });
      for (size_t i = 0; i < kRange; ++i) {
        ASSERT_EQ(touched[c][i], 1) << "caller " << c << " index " << i;
      }
    });
  }
  for (auto& t : callers) t.join();
}

TEST(ParallelForStressTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(kPoolThreads);
  constexpr size_t kRange = 10000;
  std::vector<std::atomic<uint32_t>> counts(kRange);
  for (auto& c : counts) c.store(0);
  ParallelFor(&pool, 0, kRange, [&counts](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kRange; ++i) {
    ASSERT_EQ(counts[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelForStressTest, BodyExceptionRethrownInCallerAndPoolSurvives) {
  ThreadPool pool(kPoolThreads);
  std::atomic<size_t> visited{0};
  auto run = [&] {
    ParallelFor(&pool, 0, 1000, [&visited](size_t i) {
      visited.fetch_add(1, std::memory_order_relaxed);
      if (i == 137) throw std::runtime_error("boom");
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  // The pool must stay usable after a failed ParallelFor.
  std::atomic<size_t> after{0};
  ParallelFor(&pool, 0, 500, [&after](size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 500u);
}

vecmath::Vec RandomVec(Rng* rng, size_t dim) {
  vecmath::Vec v(dim);
  for (auto& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

// ---------- HnswIndex ----------

TEST(HnswStressTest, ParallelInsertBuildParallelQuery) {
  constexpr size_t kDim = 8;
  constexpr size_t kVectors = 1000;
  constexpr size_t kQueries = 500;

  index::HnswOptions options;
  options.M = 8;
  options.ef_construction = 40;
  options.ef_search = 32;
  index::HnswIndex index(options);

  ThreadPool pool(kPoolThreads);
  // Parallel insert: Add() serializes appends internally.
  ParallelFor(&pool, 0, kVectors, [&index](size_t i) {
    Rng rng(i + 1);
    vecmath::Vec v(kDim);
    for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
    Status st = index.Add(i, v);
    ASSERT_TRUE(st.ok()) << st.ToString();
  });
  ASSERT_EQ(index.size(), kVectors);

  Status built = index.Build();
  ASSERT_TRUE(built.ok()) << built.ToString();

  // Parallel query: Search is const over immutable post-build state. Late
  // Add() calls must fail cleanly without corrupting the graph.
  std::atomic<size_t> ok_queries{0};
  ParallelFor(&pool, 0, kQueries, [&index, &ok_queries](size_t i) {
    Rng rng(9000 + i);
    vecmath::Vec q(kDim);
    for (auto& x : q) x = static_cast<float>(rng.NextGaussian());
    if (i % 97 == 0) {
      Status late = index.Add(12345678 + i, q);
      ASSERT_TRUE(late.IsFailedPrecondition()) << late.ToString();
    }
    auto hits = index.Search(q, {10, 0});
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_EQ(hits->size(), 10u);
    ok_queries.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ok_queries.load(), kQueries);
}

TEST(HnswStressTest, QuantizedParallelQuery) {
  // HNSW+PQ searches share the pooled scratch, whose gather buffers and ADC
  // table are rewritten by every query. Concurrent searches, a third of them
  // under a live (never fired) control and a few already cancelled, must
  // match a serial reference bit for bit.
  constexpr size_t kDim = 32;
  constexpr size_t kVectors = 1500;
  constexpr size_t kQueries = 40;
  constexpr size_t kK = 10;
  constexpr size_t kEf = 160;  // > kControlPopStride pops: the check runs

  index::HnswOptions options;
  options.M = 8;
  options.ef_construction = 40;
  index::PqOptions pq;
  pq.num_subquantizers = 8;
  options.quantization = pq;
  index::HnswIndex index(options);
  Rng rng(39);
  for (size_t i = 0; i < kVectors; ++i) {
    ASSERT_TRUE(index.Add(i, RandomVec(&rng, kDim)).ok());
  }
  ASSERT_TRUE(index.Build().ok());

  std::vector<vecmath::Vec> queries;
  for (size_t q = 0; q < kQueries; ++q) {
    queries.push_back(RandomVec(&rng, kDim));
  }
  std::vector<std::vector<vecmath::ScoredId>> reference;
  for (const auto& q : queries) {
    reference.push_back(index.Search(q, {kK, kEf}).MoveValue());
  }

  QueryControl live;
  live.cancel = CancellationToken::Make();
  QueryControl cancelled;
  cancelled.cancel = CancellationToken::Make();
  cancelled.cancel.RequestCancel();
  std::atomic<size_t> rejected{0};
  ThreadPool pool(kPoolThreads);
  ParallelFor(&pool, 0, kQueries * 8, [&](size_t task) {
    const size_t qi = task % kQueries;
    const QueryControl* control = nullptr;
    if (task % 3 == 1) control = &live;
    if (task % 29 == 0) control = &cancelled;
    auto hits = index.Search(queries[qi], {kK, kEf, control});
    if (control == &cancelled) {
      ASSERT_TRUE(hits.status().IsCancelled()) << hits.status().ToString();
      rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_EQ(hits->size(), reference[qi].size());
    for (size_t i = 0; i < hits->size(); ++i) {
      ASSERT_EQ((*hits)[i].id, reference[qi][i].id) << "query " << qi;
      ASSERT_EQ((*hits)[i].score, reference[qi][i].score) << "query " << qi;
    }
  });
  EXPECT_EQ(rejected.load(), (kQueries * 8 + 28) / 29);
}

// ---------- Engine build on the build pool ----------

// A small generated workload that still clusters (CTS runs UMAP and
// HDBSCAN) and trains PQ, kept small enough for a TSan run.
const datagen::Workload& BuildWorkload() {
  static const datagen::Workload workload = [] {
    datagen::WorkloadOptions options = datagen::WikiTablesWorkload(40);
    options.bank.num_topics = 6;
    options.bank.aspects_per_topic = 2;
    options.queries.per_class = 3;
    return datagen::Workload::Generate(options);
  }();
  return workload;
}

discovery::EngineOptions BuildOptions(size_t threads) {
  discovery::EngineOptions options;
  options.encoder.dim = 64;
  options.cts.umap.n_epochs = 30;
  options.embed_threads = threads;
  return options;
}

std::unique_ptr<discovery::DiscoveryEngine> BuildEngine(size_t threads) {
  const datagen::Workload& workload = BuildWorkload();
  auto engine = discovery::DiscoveryEngine::Build(
      workload.corpus.federation, workload.bank.lexicon(),
      BuildOptions(threads));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).MoveValue() : nullptr;
}

TEST(ParallelBuildStressTest, PooledBuildRanksLikeSerialBuild) {
  // Embedding, PQ beside the HNSW insert, UMAP kNN, HDBSCAN core distances
  // and ANNS beside CTS all run on the pool; every ranking must still match
  // the serial build bit for bit.
  std::unique_ptr<discovery::DiscoveryEngine> serial = BuildEngine(1);
  std::unique_ptr<discovery::DiscoveryEngine> pooled = BuildEngine(4);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(pooled, nullptr);
  ASSERT_GE(serial->build_report().cts_clusters, 2u);
  EXPECT_EQ(serial->build_report().cts_clusters,
            pooled->build_report().cts_clusters);
  EXPECT_GT(pooled->build_report().pq_ms, 0.0);
  EXPECT_GT(pooled->build_report().umap_ms, 0.0);
  EXPECT_GT(pooled->build_report().hdbscan_ms, 0.0);

  discovery::DiscoveryOptions options;
  options.top_k = 50;
  size_t compared = 0;
  for (const auto& query : BuildWorkload().queries) {
    for (discovery::Method method :
         {discovery::Method::kAnns, discovery::Method::kCts}) {
      auto want = serial->Search(method, query.text, options);
      auto got = pooled->Search(method, query.text, options);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), want->size()) << query.text;
      for (size_t i = 0; i < want->size(); ++i) {
        ASSERT_EQ((*got)[i].relation, (*want)[i].relation) << query.text;
        ASSERT_EQ(std::bit_cast<uint32_t>((*got)[i].score),
                  std::bit_cast<uint32_t>((*want)[i].score))
            << query.text;
      }
      compared += want->size();
    }
  }
  EXPECT_GT(compared, 0u);
}

// ---------- Corpus embeddings on the build pool ----------

// An encoder over the build workload's lexicon with SIF frequencies from
// `federation`, made the way the engine makes its own.
std::shared_ptr<embed::SemanticEncoder> CorpusEncoder(
    const table::Federation& federation) {
  embed::EncoderOptions options;
  options.dim = 64;
  auto encoder = std::make_shared<embed::SemanticEncoder>(
      options, BuildWorkload().bank.lexicon());
  auto frequencies = std::make_shared<embed::TokenFrequencies>();
  for (const auto& relation : federation.relations()) {
    frequencies->AddText(relation.ConsolidatedText());
  }
  encoder->SetTokenFrequencies(std::move(frequencies));
  return encoder;
}

discovery::CorpusEmbeddings BuildCorpus(const table::Federation& federation,
                                        const embed::SemanticEncoder& encoder,
                                        ThreadPool* pool) {
  auto corpus = discovery::CorpusEmbeddings::Build(federation, encoder, pool);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return corpus.ok() ? std::move(corpus).MoveValue()
                     : discovery::CorpusEmbeddings{};
}

// Checksum64 over each cell's vector bytes in cell order, then over the
// cells' refs: the per-cell bytes, however the corpus stores them (the
// digest does not depend on how the bytes are split into updates).
uint64_t CorpusFingerprint(const discovery::CorpusEmbeddings& corpus) {
  Checksum64 sum;
  const vecmath::RowsView cells = corpus.CellVectors();
  for (size_t i = 0; i < cells.rows(); ++i) {
    sum.Update(cells.Row(i), cells.cols() * sizeof(float));
  }
  sum.Update(corpus.refs.data(),
             corpus.refs.size() * sizeof(discovery::CellRef));
  return sum.Digest();
}

// The recorded value for the active SIMD tier (scalar, AVX2), or nullopt on
// a tier with none recorded.
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

void ExpectRowsBitEqual(const vecmath::RowsView& got, size_t row,
                        const vecmath::Vec& want, const std::string& text) {
  ASSERT_EQ(got.cols(), want.size());
  for (size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got.Row(row)[j]),
              std::bit_cast<uint32_t>(want[j]))
        << "row " << row << " ('" << text << "') dim " << j;
  }
}

TEST(ParallelBuildStressTest, CorpusEmbeddingsMatchParentFingerprint) {
  // Pins the corpus bytes of the build workload, serial and pooled. The
  // constants were recorded on the per-cell EncodeText build, before it
  // became one batch over distinct texts, tokens and directions; scalar
  // under MIRA_FORCE_SCALAR=1, AVX2 without it.
  const std::optional<uint64_t> expected = FingerprintForTier(
      6266756181347557140ULL, 4174206198308984740ULL);
  if (!expected.has_value()) {
    GTEST_SKIP() << "no recorded corpus fingerprint for SIMD tier "
                 << vecmath::SimdTierName(vecmath::ActiveSimdTier());
  }
  const table::Federation& federation = BuildWorkload().corpus.federation;
  ThreadPool pool(kPoolThreads);
  for (ThreadPool* build_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(build_pool == nullptr ? "serial" : "pooled");
    const discovery::CorpusEmbeddings corpus =
        BuildCorpus(federation, *CorpusEncoder(federation), build_pool);
    ASSERT_GT(corpus.num_cells(), 1000u);
    EXPECT_EQ(CorpusFingerprint(corpus), *expected);
  }
}

// Cells for the batch's edge cases: repeated texts, a punctuation-only cell
// (no tokens: a zero row), numbers, lexicon surface forms, stopword-only
// cells and an empty cell (skipped).
table::Federation EdgeCaseFederation() {
  const embed::Lexicon& lexicon = *BuildWorkload().bank.lexicon();
  const std::string surface = lexicon.SurfacesOf(0).front();
  const std::string synonym = lexicon.SurfacesOf(0).back();
  const std::string other = lexicon.SurfacesOf(1).front();
  table::Federation federation = BuildWorkload().corpus.federation;
  table::Relation edge;
  edge.name = "edge_cases";
  edge.schema = {"a", "b", "c"};
  const std::vector<std::vector<std::string>> rows = {
      {"the of and", "1995", surface},
      {"--- !!", "1995", surface + " sales by region"},
      {"", "3.5e9", "a an the"},
      {"1997", "--- !!", synonym + " " + other},
      {"the of and", surface, "Sales by Region 1995"},
      {"x", "-0.25", other + " 2024"},
  };
  for (const auto& row : rows) EXPECT_TRUE(edge.AddRow(row).ok());
  federation.AddRelation(edge);
  federation.AddRelation(std::move(edge));
  return federation;
}

// Checks every row of a batch build against NormalizeInPlace(EncodeText)
// of its cell from a fresh encoder, bit for bit; returns the zero rows.
size_t ExpectRowsMatchPerCellEncoding(const table::Federation& federation,
                                      ThreadPool* pool) {
  const discovery::CorpusEmbeddings corpus =
      BuildCorpus(federation, *CorpusEncoder(federation), pool);
  const std::shared_ptr<embed::SemanticEncoder> fresh =
      CorpusEncoder(federation);
  EXPECT_GT(corpus.num_cells(), 0u);
  size_t zero_rows = 0;
  for (size_t i = 0; i < corpus.num_cells(); ++i) {
    const discovery::CellRef& ref = corpus.refs[i];
    const std::string& text =
        federation.relation(ref.relation).Cell(ref.row, ref.col);
    vecmath::Vec want = fresh->EncodeText(text);
    vecmath::NormalizeInPlace(&want);
    ExpectRowsBitEqual(corpus.CellVectors(), i, want, text);
    if (vecmath::Norm(want) == 0.f) ++zero_rows;
  }
  return zero_rows;
}

TEST(ParallelBuildStressTest, CorpusRowsMatchPerCellEncoding) {
  // Serial and pooled, over the edge-case federation and over four copies
  // of it, where every text repeats across relations.
  const table::Federation federation = EdgeCaseFederation();
  table::Federation repeated;
  for (int copy = 0; copy < 4; ++copy) {
    for (const table::Relation& relation : federation.relations()) {
      repeated.AddRelation(relation);
    }
  }
  ThreadPool pool(kPoolThreads);
  for (ThreadPool* build_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(build_pool == nullptr ? "serial" : "pooled");
    // "--- !!", twice in each edge relation.
    EXPECT_EQ(ExpectRowsMatchPerCellEncoding(federation, build_pool), 4u);
    EXPECT_EQ(ExpectRowsMatchPerCellEncoding(repeated, build_pool), 16u);
  }
}

TEST(ParallelBuildStressTest, BuildLeavesQueryEncodingUnchanged) {
  // The build hands its token vectors to the encoder's cache; queries
  // encoded afterwards, over cached and uncached tokens alike, must equal a
  // fresh encoder's.
  const table::Federation federation = EdgeCaseFederation();
  ThreadPool pool(kPoolThreads);
  const std::shared_ptr<embed::SemanticEncoder> built =
      CorpusEncoder(federation);
  const discovery::CorpusEmbeddings corpus =
      BuildCorpus(federation, *built, &pool);
  ASSERT_GT(corpus.num_cells(), 0u);
  const std::shared_ptr<embed::SemanticEncoder> fresh =
      CorpusEncoder(federation);
  std::vector<std::string> queries = {"sales by region 1995",
                                      "zyxxy unseen tokens 31337", "the",
                                      "--- !!"};
  for (const auto& query : BuildWorkload().queries) {
    queries.push_back(query.text);
  }
  for (const std::string& query : queries) {
    const vecmath::Vec want = fresh->EncodeText(query);
    const vecmath::Vec got = built->EncodeText(query);
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[j]),
                std::bit_cast<uint32_t>(want[j]))
          << "'" << query << "' dim " << j;
    }
  }
}

TEST(ParallelBuildStressTest, QueriesEncodeWhileABuildFillsTheCache) {
  // Queries read cached token vectors by reference outside the cache lock,
  // while builds on the same encoder insert their batches; every query
  // vector must still equal a fresh encoder's.
  const table::Federation federation = EdgeCaseFederation();
  const std::shared_ptr<embed::SemanticEncoder> shared =
      CorpusEncoder(federation);
  const std::shared_ptr<embed::SemanticEncoder> fresh =
      CorpusEncoder(federation);
  std::vector<std::string> queries = {"sales by region 1995", "the"};
  for (const auto& query : BuildWorkload().queries) {
    queries.push_back(query.text);
  }
  std::vector<vecmath::Vec> want;
  for (const std::string& query : queries) {
    want.push_back(fresh->EncodeText(query));
  }
  std::atomic<bool> done{false};
  std::atomic<size_t> encoded{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      do {
        for (size_t q = r; q < queries.size(); ++q) {
          if (shared->EncodeText(queries[q]) != want[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          encoded.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!done.load(std::memory_order_relaxed));
    });
  }
  ThreadPool pool(2);
  for (int build = 0; build < 2; ++build) {
    EXPECT_GT(BuildCorpus(federation, *shared, &pool).num_cells(), 0u);
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(encoded.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ParallelBuildStressTest, ProductQuantizerPoolMatchesInline) {
  constexpr size_t kDim = 32;
  constexpr size_t kRows = 1200;
  Rng rng(77);
  vecmath::Matrix data(kRows, kDim);
  for (auto& x : data.data()) x = static_cast<float>(rng.NextGaussian());
  ThreadPool pool(kPoolThreads);
  index::PqOptions options;
  options.num_subquantizers = 8;
  options.max_training_rows = 1000;
  auto inline_pq = index::ProductQuantizer::Train(data, options);
  auto pooled_pq = index::ProductQuantizer::Train(data, options, &pool);
  ASSERT_TRUE(inline_pq.ok()) << inline_pq.status().ToString();
  ASSERT_TRUE(pooled_pq.ok()) << pooled_pq.status().ToString();
  // Codebooks: code c in every subspace decodes to centroid c of each.
  const size_t m = inline_pq->num_subquantizers();
  for (size_t c = 0; c < index::ProductQuantizer::kCodebookSize; ++c) {
    const std::vector<uint8_t> code(m, static_cast<uint8_t>(c));
    const vecmath::Vec want = inline_pq->Decode(code);
    const vecmath::Vec got = pooled_pq->Decode(code);
    for (size_t j = 0; j < kDim; ++j) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[j]),
                std::bit_cast<uint32_t>(want[j]))
          << "centroid " << c;
    }
  }
  std::vector<uint8_t> want_codes(kRows * m), got_codes(kRows * m);
  inline_pq->EncodeBatch(data, want_codes.data());
  pooled_pq->EncodeBatch(data, got_codes.data(), &pool);
  EXPECT_EQ(got_codes, want_codes);
  for (size_t i = 0; i < kRows; i += 97) {
    EXPECT_EQ(inline_pq->Encode(data.RowVec(i)),
              std::vector<uint8_t>(want_codes.begin() + i * m,
                                   want_codes.begin() + (i + 1) * m));
  }
}

TEST(ParallelBuildStressTest, TwoThreadPoolBuildsBothSearchers) {
  // The deadlock guard: with two workers, CTS builds on its own thread, the
  // PQ job on another, and ANNS inserts on the caller, all forking onto the
  // same small pool. ParallelFor waits without helping, so this finishes
  // only if no parallel loop is ever started from a pool task.
  std::unique_ptr<discovery::DiscoveryEngine> engine = BuildEngine(2);
  ASSERT_NE(engine, nullptr);
  EXPECT_NE(engine->searcher(discovery::Method::kAnns), nullptr);
  EXPECT_NE(engine->searcher(discovery::Method::kCts), nullptr);
  discovery::DiscoveryOptions options;
  auto ranking = engine->Search(discovery::Method::kCts,
                                BuildWorkload().queries.front().text, options);
  EXPECT_TRUE(ranking.ok()) << ranking.status().ToString();
}

// ---------- Metrics ----------

TEST(ObsStressTest, CounterAndHistogramUnderTenThousandPoolTasks) {
  // One shared Counter and Histogram hammered from >10k pool tasks: the
  // lock-free fast paths must lose no increments and no histogram samples
  // (TSan runs this via the `tsan` preset's test regex).
  ThreadPool pool(kPoolThreads);
  constexpr size_t kTasks = 12000;
  obs::Counter counter;
  obs::Histogram histogram;
  ParallelFor(&pool, 0, kTasks, [&counter, &histogram](size_t i) {
    counter.Increment();
    histogram.Record(static_cast<double>(i % 251) + 0.25);
  });
  EXPECT_EQ(counter.value(), kTasks);
  obs::Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, kTasks);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kTasks);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 250.25);
}

TEST(ObsStressTest, RegistryLookupsRaceFree) {
  // Concurrent Get* calls on overlapping names must return stable references
  // and register each name exactly once.
  ThreadPool pool(kPoolThreads);
  obs::MetricRegistry registry;
  constexpr size_t kTasks = 2000;
  std::atomic<uint64_t> recorded{0};
  ParallelFor(&pool, 0, kTasks, [&registry, &recorded](size_t i) {
    obs::Counter& c = registry.GetCounter(
        "mira.stress.counter." + std::to_string(i % 7));
    c.Increment();
    registry.GetHistogram("mira.stress.hist").Record(1.0);
    recorded.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(recorded.load(), kTasks);
  uint64_t total = 0;
  for (int n = 0; n < 7; ++n) {
    total += registry.GetCounter("mira.stress.counter." + std::to_string(n))
                 .value();
  }
  EXPECT_EQ(total, kTasks);
  EXPECT_EQ(registry.GetHistogram("mira.stress.hist").TakeSnapshot().count,
            kTasks);
}

// ---------- Cross-thread trace merging ----------

#if MIRA_OBS_ENABLED

TEST(TraceMergeStressTest, TwelveThousandTasksUnderOneArmedTrace) {
  // One armed trace, 12 sequential ParallelFor fan-outs of 1000 items each:
  // every worker-side span must be spliced back exactly once with a worker
  // tid, and the parent trace must never be written concurrently (this is
  // the propagation test the `tsan` preset's regex runs).
  ThreadPool pool(kPoolThreads);
  constexpr size_t kRounds = 12;
  constexpr size_t kItems = 1000;
  obs::QueryTrace trace;
  {
    obs::ScopedTrace collect(&trace);
    ASSERT_TRUE(collect.armed());
    obs::TraceSpan root("stress_root");
    for (size_t round = 0; round < kRounds; ++round) {
      ParallelFor(&pool, 0, kItems, [](size_t i) {
        obs::TraceSpan span("stress_item");
        span.AddCounter("one", 1);
        if (i % 97 == 0) {
          obs::TraceSpan nested("stress_nested");
        }
      });
    }
  }
  size_t items = 0;
  size_t nested = 0;
  for (const obs::SpanRecord& span : trace.spans()) {
    std::string_view name(span.name);
    if (name == "stress_item") {
      ++items;
      EXPECT_EQ(span.parent, 0);
      EXPECT_GT(span.tid, 0);
    } else if (name == "stress_nested") {
      ++nested;
      EXPECT_GT(span.tid, 0);
      EXPECT_STREQ(trace.spans()[static_cast<size_t>(span.parent)].name,
                   "stress_item");
    }
  }
  EXPECT_EQ(items, kRounds * kItems);
  EXPECT_EQ(nested, kRounds * ((kItems + 96) / 97));
  EXPECT_EQ(trace.CounterValue("stress_item", "one"),
            static_cast<int64_t>(kRounds * kItems));
}

TEST(TraceMergeStressTest, ConcurrentIndependentTracedSections) {
  // Several threads each run their own armed trace over the same pool at
  // once: buffers must never leak into the wrong trace.
  ThreadPool pool(kPoolThreads);
  constexpr size_t kCallers = 6;
  constexpr size_t kItems = 400;
  std::vector<obs::QueryTrace> traces(kCallers);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &traces, c] {
      obs::ScopedTrace collect(&traces[c]);
      obs::TraceSpan root("caller_root");
      ParallelFor(&pool, 0, kItems, [c](size_t) {
        obs::TraceSpan span("caller_item");
        span.AddCounter("caller", static_cast<int64_t>(c));
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    size_t items = 0;
    for (const obs::SpanRecord& span : traces[c].spans()) {
      if (std::string_view(span.name) == "caller_item") ++items;
    }
    EXPECT_EQ(items, kItems) << "caller " << c;
    // Every adopted counter belongs to this caller.
    EXPECT_EQ(traces[c].CounterValue("caller_item", "caller"),
              static_cast<int64_t>(c * kItems));
  }
}

#endif  // MIRA_OBS_ENABLED

// ---------- Query log ----------

TEST(QueryLogStressTest, ConcurrentWritersAndSnapshotReaders) {
  // Writers hammer the lock-free ring from the pool while readers snapshot
  // and export concurrently: no torn entries (method strings stay intact),
  // every record accounted for as stored or dropped.
  obs::QueryLog log(64);
  ThreadPool pool(kPoolThreads);
  constexpr size_t kWrites = 12000;
  std::atomic<bool> stop{false};
  std::thread reader([&log, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::QueryLogEntry& entry : log.Snapshot()) {
        // A torn read would surface as a method that is neither value.
        std::string_view method(entry.method);
        ASSERT_TRUE(method == "ExS" || method == "CTS") << method;
        ASSERT_EQ(entry.k, entry.result_count);
      }
      // Export under concurrency must stay well-formed line-structured text.
      std::string lines = log.ExportJsonLines();
      ASSERT_TRUE(lines.empty() || lines.back() == '\n');
    }
  });
  ParallelFor(&pool, 0, kWrites, [&log](size_t i) {
    obs::QueryLogEntry entry;
    entry.SetMethod(i % 2 == 0 ? "ExS" : "CTS");
    entry.k = static_cast<uint32_t>(i);
    entry.result_count = static_cast<uint32_t>(i);
    entry.duration_ms = 0.5;
    log.Record(entry);
  });
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(log.total_recorded(), kWrites);
  // Entries still resident are consistent and at most `capacity` many.
  std::vector<obs::QueryLogEntry> entries = log.Snapshot();
  EXPECT_LE(entries.size(), log.capacity());
  EXPECT_LE(log.dropped(), kWrites);
}

TEST(QueryLogStressTest, ConcurrentSlowTracePromotion) {
  obs::QueryLog log(64);
  ThreadPool pool(kPoolThreads);
  log.SetSlowThresholdMs(1.0);
  obs::QueryTrace trace;
  trace.FinishSpan(trace.StartSpan("slow_query", -1, 0.0), 5.0);
  ParallelFor(&pool, 0, 500, [&log, &trace](size_t i) {
    if (log.IsSlow(5.0)) {
      log.PromoteSlowTrace(i + 1, 5.0, trace);
    }
  });
  EXPECT_EQ(log.SlowTraces().size(), obs::QueryLog::kMaxSlowTraces);
}

// ---------- Batched scans ----------

TEST(BatchedScanStressTest, ConcurrentFlatSearchesMatchSerialReference) {
  // FlatIndex::Search runs the SIMD-batched block scan over shared immutable
  // rows; concurrent const searches must be race-free and return exactly what
  // a single-threaded scan returns.
  constexpr size_t kDim = 24;
  constexpr size_t kVectors = 3000;
  constexpr size_t kQueries = 64;

  index::FlatIndex flat(vecmath::Metric::kCosine);
  flat.Reserve(kVectors);
  {
    Rng rng(42);
    for (size_t i = 0; i < kVectors; ++i) {
      ASSERT_TRUE(flat.Add(i, RandomVec(&rng, kDim)).ok());
    }
  }
  ASSERT_TRUE(flat.Build().ok());

  std::vector<vecmath::Vec> queries;
  Rng qrng(4242);
  for (size_t q = 0; q < kQueries; ++q) queries.push_back(RandomVec(&qrng, kDim));

  std::vector<std::vector<vecmath::ScoredId>> reference;
  reference.reserve(kQueries);
  for (const auto& q : queries) {
    reference.push_back(flat.Search(q, {10, 0}).MoveValue());
  }

  ThreadPool pool(kPoolThreads);
  // Each query is searched repeatedly from many threads at once.
  ParallelFor(&pool, 0, kQueries * 4, [&](size_t task) {
    const size_t qi = task % kQueries;
    auto hits = flat.Search(queries[qi], {10, 0});
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_EQ(hits->size(), reference[qi].size());
    for (size_t i = 0; i < hits->size(); ++i) {
      ASSERT_EQ((*hits)[i].id, reference[qi][i].id) << "query " << qi;
      ASSERT_EQ((*hits)[i].score, reference[qi][i].score) << "query " << qi;
    }
  });
}

TEST(BatchedScanStressTest, ConcurrentHnswSearchesMatchSerialReference) {
  // HnswIndex::Search draws SearchScratch from a shared pool; concurrent
  // queries must neither race on scratch state nor perturb results.
  constexpr size_t kDim = 16;
  constexpr size_t kVectors = 1200;
  constexpr size_t kQueries = 32;

  index::HnswOptions options;
  options.M = 8;
  options.ef_construction = 40;
  options.ef_search = 48;
  index::HnswIndex index(options);
  index.Reserve(kVectors);
  {
    Rng rng(7);
    for (size_t i = 0; i < kVectors; ++i) {
      ASSERT_TRUE(index.Add(i, RandomVec(&rng, kDim)).ok());
    }
  }
  ASSERT_TRUE(index.Build().ok());

  std::vector<vecmath::Vec> queries;
  Rng qrng(77);
  for (size_t q = 0; q < kQueries; ++q) queries.push_back(RandomVec(&qrng, kDim));

  std::vector<std::vector<vecmath::ScoredId>> reference;
  reference.reserve(kQueries);
  for (const auto& q : queries) {
    reference.push_back(index.Search(q, {10, 0}).MoveValue());
  }

  ThreadPool pool(kPoolThreads);
  ParallelFor(&pool, 0, kQueries * 8, [&](size_t task) {
    const size_t qi = task % kQueries;
    auto hits = index.Search(queries[qi], {10, 0});
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_EQ(hits->size(), reference[qi].size());
    for (size_t i = 0; i < hits->size(); ++i) {
      ASSERT_EQ((*hits)[i].id, reference[qi][i].id) << "query " << qi;
      ASSERT_EQ((*hits)[i].score, reference[qi][i].score) << "query " << qi;
    }
  });
}

}  // namespace
}  // namespace mira
