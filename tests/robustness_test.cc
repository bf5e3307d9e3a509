// Robustness suite: deadlines and cancellation across the query path, the
// engine's degradation ladder, the failpoint fault-injection matrix,
// crash-safe corpus persistence (checksums, partial writes), and retry
// semantics. Companion doc: docs/ROBUSTNESS.md.
//
// Failpoint-dependent tests GTEST_SKIP when the framework is compiled out
// (the default); CI runs this suite a second time with -DMIRA_FAILPOINTS=ON.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "discovery/anns_search.h"
#include "discovery/corpus_embeddings.h"
#include "discovery/engine.h"
#include "discovery/exhaustive_search.h"
#include "discovery/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/discovery_service.h"

namespace mira::discovery {
namespace {

// ---------- Shared fixtures ----------

// Per-process scratch directory; ctest runs each test in its own process, so
// the pid keeps parallel shards from clobbering each other's files.
std::filesystem::path TempDir() {
  auto dir = std::filesystem::temp_directory_path() /
             ("mira_robustness_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir;
}

// The Figure 1 federation (same shape as discovery_test.cc): three COVID
// vaccine tables — only ECDC contains the literal keyword — plus two
// unrelated tables.
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
  int32_t moderna = fx.lexicon->AddConcept(covid, "moderna", vaccines);
  fx.lexicon->AddSurface(moderna, "moderna");
  fx.lexicon->AddSurface(moderna, "spikevax");

  table::Relation who;
  who.name = "WHO";
  who.schema = {"Region", "Date", "Vaccine", "Dosage"};
  who.AddRow({"North America", "2021-01-01", "Comirnaty", "First"}).Abort("");
  who.AddRow({"Europe", "2021-02-01", "Vaxzevria", "Second"}).Abort("");
  fx.who = fx.federation.AddRelation(std::move(who));

  table::Relation cdc;
  cdc.name = "CDC";
  cdc.schema = {"State", "Date", "Immunogen", "Manufacturer"};
  cdc.AddRow({"California", "2021-01-01", "mRNA", "Moderna"}).Abort("");
  cdc.AddRow({"Texas", "2021-02-01", "Vector Virus", "Janssen"}).Abort("");
  cdc.AddRow({"Florida", "2021-03-01", "mRNA", "Pfizer"}).Abort("");
  fx.cdc = fx.federation.AddRelation(std::move(cdc));

  table::Relation ecdc;
  ecdc.name = "ECDC";
  ecdc.schema = {"Country", "Date", "Trade Name", "Disease"};
  ecdc.AddRow({"Germany", "2021-01-01", "Pfizer-BioNTech", "COVID-19"})
      .Abort("");
  ecdc.AddRow({"France", "2021-02-01", "AstraZeneca", "COVID-19"}).Abort("");
  ecdc.AddRow({"Spain", "2021-03-01", "Moderna", "COVID-19"}).Abort("");
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
  options.encoder.dim = 256;
  options.cts.umap.n_epochs = 60;
  options.embed_threads = 1;
  return options;
}

// One engine shared by every deadline/degradation test in this binary
// (deliberately leaked; CTS construction dominates the suite otherwise).
struct EngineFixture {
  CovidFixture covid;
  std::unique_ptr<DiscoveryEngine> engine;
};

const EngineFixture& SharedEngine() {
  static EngineFixture* fx = [] {
    auto* f = new EngineFixture;
    f->covid = MakeCovidFixture();
    f->engine = DiscoveryEngine::Build(f->covid.federation, f->covid.lexicon,
                                       FastEngineOptions())
                    .MoveValue();
    return f;
  }();
  return *fx;
}

constexpr Method kAllMethods[] = {Method::kExhaustive, Method::kAnns,
                                  Method::kCts};

void ExpectSameRanking(const Ranking& a, const Ranking& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].relation, b[i].relation) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

double ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Disarms every failpoint on entry and exit so state never leaks between
// tests sharing a process.
struct FailpointGuard {
  FailpointGuard() { failpoint::ClearAll(); }
  ~FailpointGuard() { failpoint::ClearAll(); }
};

// ---------- Env-var spec (must run before any other failpoint consumption
// in this process: the MIRA_FAILPOINTS environment variable is parsed once,
// the first time any site is evaluated) ----------

TEST(FailpointEnvTest, EnvVarSpecArmsSites) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  // dataloss is distinguishable from the kIoError a genuinely missing file
  // would produce, so a pass proves the env spec (not the miss) fired.
  ::setenv("MIRA_FAILPOINTS", "corpus.load=error(dataloss,1)", 1);
  Status injected =
      CorpusEmbeddings::Load((TempDir() / "never_written.bin").string())
          .status();
  ::unsetenv("MIRA_FAILPOINTS");
  failpoint::ClearAll();
  EXPECT_TRUE(injected.IsDataLoss()) << injected.ToString();
  Status miss =
      CorpusEmbeddings::Load((TempDir() / "never_written.bin").string())
          .status();
  EXPECT_TRUE(miss.IsIoError()) << miss.ToString();
}

// ---------- Deadline / CancellationToken / QueryControl ----------

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.FractionRemaining(), 1.0);
}

TEST(DeadlineTest, ZeroBudgetIsImmediatelyExpired) {
  Deadline d = Deadline::After(0.0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0.0);
  EXPECT_EQ(d.FractionRemaining(), 0.0);
}

TEST(DeadlineTest, GenerousBudgetHasFractionNearOne) {
  Deadline d = Deadline::After(60'000.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.FractionRemaining(), 0.9);
  EXPECT_GT(d.remaining_ms(), 1000.0);
}

TEST(CancellationTokenTest, CopiesShareTheFlag) {
  CancellationToken token = CancellationToken::Make();
  CancellationToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.RequestCancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancellationTokenTest, NullTokenIsInert) {
  CancellationToken null_token;
  EXPECT_FALSE(null_token.valid());
  null_token.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(null_token.cancelled());
}

TEST(QueryControlTest, DefaultInstanceIsInactive) {
  QueryControl control;
  EXPECT_FALSE(control.active());
  EXPECT_FALSE(control.ShouldStop());
  EXPECT_TRUE(control.Check("test").ok());
}

TEST(QueryControlTest, CancellationOutranksDeadline) {
  QueryControl control;
  control.deadline = Deadline::After(0.0);
  control.cancel = CancellationToken::Make();
  control.cancel.RequestCancel();
  Status status = control.Check("test");
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
}

TEST(QueryControlTest, ExpiredDeadlineChecksAsDeadlineExceeded) {
  QueryControl control;
  control.deadline = Deadline::After(0.0);
  EXPECT_TRUE(control.active());
  EXPECT_TRUE(control.ShouldStop());
  Status status = control.Check("stage.name");
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_NE(status.message().find("stage.name"), std::string::npos);
}

// ---------- ParallelForCancellable ----------

TEST(ParallelForCancellableTest, InlineStopsAtFirstError) {
  std::atomic<size_t> executed{0};
  Status status =
      ParallelForCancellable(nullptr, 0, 100, nullptr, [&](size_t i) {
        ++executed;
        if (i == 5) return Status::Internal("boom at 5");
        return Status::OK();
      });
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
  // The inline path is strictly ordered: indices after the failure never run.
  EXPECT_EQ(executed.load(), 6u);
}

TEST(ParallelForCancellableTest, InlineChecksControlBeforeEachIndex) {
  QueryControl control;
  control.cancel = CancellationToken::Make();
  control.cancel.RequestCancel();
  std::atomic<size_t> executed{0};
  Status status =
      ParallelForCancellable(nullptr, 0, 100, &control, [&](size_t) {
        ++executed;
        return Status::OK();
      });
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ParallelForCancellableTest, PoolPathReturnsTheInjectedError) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  Status status = ParallelForCancellable(&pool, 0, 512, nullptr, [&](size_t i) {
    ++executed;
    if (i == 17) return Status::DataLoss("injected");
    return Status::OK();
  });
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
  EXPECT_LE(executed.load(), 512u);
}

TEST(ParallelForCancellableTest, PoolPathAllOkRunsEveryIndex) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  Status status = ParallelForCancellable(&pool, 0, 1000, nullptr, [&](size_t i) {
    sum += i;
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST(ParallelForCancellableTest, ExpiredControlSkipsEveryChunk) {
  ThreadPool pool(4);
  QueryControl control;
  control.deadline = Deadline::After(0.0);
  std::atomic<size_t> executed{0};
  Status status = ParallelForCancellable(&pool, 0, 256, &control, [&](size_t) {
    ++executed;
    return Status::OK();
  });
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  // Chunks test the budget before claiming work, so nothing runs.
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ParallelForCancellableTest, EmptyRangeIsOk) {
  ThreadPool pool(2);
  Status status = ParallelForCancellable(
      &pool, 5, 5, nullptr,
      [](size_t) { return Status::Internal("must not run"); });
  EXPECT_TRUE(status.ok());
}

TEST(ParallelForCancellableTest, PoolPathBodyThrowIsRethrownAfterTheJoin) {
  ThreadPool pool(4);
  std::atomic<int> in_body{0};
  bool caught = false;
  try {
    Status status =
        ParallelForCancellable(&pool, 0, 512, nullptr, [&](size_t i) {
          in_body.fetch_add(1);
          struct Leave {
            std::atomic<int>* count;
            ~Leave() { count->fetch_sub(1); }
          } leave{&in_body};
          if (i == 37) throw std::runtime_error("boom at 37");
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          return Status::OK();
        });
    ADD_FAILURE() << "no exception, status " << status.ToString();
  } catch (const std::runtime_error& error) {
    caught = true;
    EXPECT_STREQ(error.what(), "boom at 37");
    // Every chunk has joined: no body is still running on a worker.
    EXPECT_EQ(in_body.load(), 0);
  }
  EXPECT_TRUE(caught);

  // The pool keeps serving after the throw.
  std::atomic<uint64_t> sum{0};
  Status status = ParallelForCancellable(&pool, 0, 1000, nullptr, [&](size_t i) {
    sum += i;
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

// ---------- Checksum64 ----------

TEST(ChecksumTest, GranularityIndependent) {
  std::vector<unsigned char> data(4097);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>((i * 131) ^ (i >> 3));
  }
  uint64_t oneshot = Checksum64::Hash(data.data(), data.size());

  Checksum64 by_byte;
  for (unsigned char byte : data) by_byte.Update(&byte, 1);
  EXPECT_EQ(by_byte.Digest(), oneshot);

  Checksum64 by_seven;
  for (size_t off = 0; off < data.size(); off += 7) {
    by_seven.Update(data.data() + off, std::min<size_t>(7, data.size() - off));
  }
  EXPECT_EQ(by_seven.Digest(), oneshot);
  EXPECT_EQ(by_seven.length(), data.size());
}

TEST(ChecksumTest, SingleBitFlipChangesDigest) {
  std::vector<unsigned char> data(1024, 0xA5);
  uint64_t clean = Checksum64::Hash(data.data(), data.size());
  data[512] ^= 0x01;
  EXPECT_NE(Checksum64::Hash(data.data(), data.size()), clean);
}

TEST(ChecksumTest, DigestDoesNotConsume) {
  Checksum64 sum;
  sum.Update("hello", 5);
  uint64_t first = sum.Digest();
  EXPECT_EQ(sum.Digest(), first);
  sum.Update(" world", 6);
  EXPECT_NE(sum.Digest(), first);
}

TEST(ChecksumTest, SeedChangesDigest) {
  const char data[] = "same bytes";
  EXPECT_NE(Checksum64::Hash(data, sizeof(data), 0),
            Checksum64::Hash(data, sizeof(data), 1));
}

// ---------- RetryPolicy (no failpoints needed) ----------

RetryOptions FastRetryOptions() {
  RetryOptions options;
  options.initial_backoff_ms = 0.1;
  options.max_backoff_ms = 0.5;
  return options;
}

TEST(RetryPolicyTest, NonTransientFailsWithoutRetry) {
  RetryPolicy policy(FastRetryOptions());
  int calls = 0;
  Status status = policy.Run([&]() {
    ++calls;
    return Status::DataLoss("permanent");
  });
  EXPECT_TRUE(status.IsDataLoss());
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, TransientRetriesUntilSuccess) {
  RetryPolicy policy(FastRetryOptions());
  int calls = 0;
  Status status = policy.Run([&]() {
    ++calls;
    if (calls < 3) return Status::IoError("flaky");
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, AttemptsBoundTheLoop) {
  RetryOptions options = FastRetryOptions();
  options.max_attempts = 3;
  RetryPolicy policy(options);
  int calls = 0;
  Status status = policy.Run([&]() {
    ++calls;
    return Status::Unavailable("always down");
  });
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, ExpiredControlStopsRetrying) {
  RetryPolicy policy(FastRetryOptions());
  QueryControl control;
  control.deadline = Deadline::After(0.0);
  int calls = 0;
  Status status = policy.Run(
      [&]() {
        ++calls;
        return Status::IoError("transient");
      },
      &control);
  EXPECT_TRUE(status.IsIoError());
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, JitterSeamPinsBackoffBounds) {
  RetryOptions options;
  options.initial_backoff_ms = 10.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 100.0;
  options.jitter_fraction = 0.25;
  // Draw 0.0 pins the low bound, 1.0 the high bound, 0.5 disables jitter.
  options.jitter_source = [](int) { return 0.0; };
  EXPECT_DOUBLE_EQ(RetryPolicy(options).BackoffMsForAttempt(1), 10.0 * 0.75);
  EXPECT_DOUBLE_EQ(RetryPolicy(options).BackoffMsForAttempt(2), 20.0 * 0.75);
  options.jitter_source = [](int) { return 1.0; };
  EXPECT_DOUBLE_EQ(RetryPolicy(options).BackoffMsForAttempt(1), 10.0 * 1.25);
  // Attempt 5 would be 160 ms unclamped; the ceiling applies before jitter.
  EXPECT_DOUBLE_EQ(RetryPolicy(options).BackoffMsForAttempt(5), 100.0 * 1.25);
  options.jitter_source = [](int) { return 0.5; };
  EXPECT_DOUBLE_EQ(RetryPolicy(options).BackoffMsForAttempt(3), 40.0);
}

TEST(RetryPolicyTest, SeededJitterIsDeterministicAndBounded) {
  RetryOptions options;
  options.initial_backoff_ms = 8.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 50.0;
  options.jitter_fraction = 0.25;
  RetryPolicy a(options);
  RetryPolicy b(options);
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double backoff = a.BackoffMsForAttempt(attempt);
    // Same seed, same attempt -> identical value (the stream is forked per
    // retry index, not shared mutable state).
    EXPECT_DOUBLE_EQ(backoff, b.BackoffMsForAttempt(attempt)) << attempt;
    double base = options.initial_backoff_ms;
    for (int i = 1; i < attempt; ++i) base *= options.backoff_multiplier;
    base = std::min(base, options.max_backoff_ms);
    EXPECT_GE(backoff, base * (1.0 - options.jitter_fraction)) << attempt;
    EXPECT_LE(backoff, base * (1.0 + options.jitter_fraction)) << attempt;
  }
  options.seed ^= 0xABCDEF;
  RetryPolicy reseeded(options);
  bool any_different = false;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    any_different |= reseeded.BackoffMsForAttempt(attempt) !=
                     a.BackoffMsForAttempt(attempt);
  }
  EXPECT_TRUE(any_different) << "reseeding did not move the jitter stream";
}

TEST(RetryPolicyTest, JitterSourceReceivesRetryIndices) {
  RetryOptions options;
  options.max_attempts = 4;
  options.initial_backoff_ms = 0.01;
  options.max_backoff_ms = 0.01;
  std::vector<int> seen;
  options.jitter_source = [&seen](int attempt) {
    seen.push_back(attempt);
    return 0.5;
  };
  RetryPolicy policy(options);
  Status status = policy.Run([] { return Status::Unavailable("down"); });
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

// ---------- Corpus persistence: checksums, truncation, atomicity ----------

// MIRACOR3 layout: an 8-byte magic, six uint64 header words {num_relations,
// cells, cols, rows, payload checksum, header checksum}, then the payload
// (rows, refs, cell rows).
constexpr size_t kPayloadOffset = 8 + 6 * sizeof(uint64_t);

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void SetHeaderWord(std::vector<char>* bytes, size_t word, uint64_t value) {
  std::memcpy(bytes->data() + 8 + word * sizeof(value), &value, sizeof(value));
}

// Re-seals both checksums over the (possibly mutated) bytes, as a crafted
// file can: Checksum64 is an unkeyed public hash.
void ResealChecksums(std::vector<char>* bytes) {
  if (bytes->size() < kPayloadOffset) return;
  SetHeaderWord(bytes, 4,
                Checksum64::Hash(bytes->data() + kPayloadOffset,
                                 bytes->size() - kPayloadOffset));
  Checksum64 header_sum;
  header_sum.Update(bytes->data(), 8 + 5 * sizeof(uint64_t));
  SetHeaderWord(bytes, 5, header_sum.Digest());
}

class CorpusIntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = MakeCovidFixture();
    embed::EncoderOptions opts;
    opts.dim = 32;
    encoder_ = std::make_shared<embed::SemanticEncoder>(opts, fx_.lexicon);
    corpus_ = CorpusEmbeddings::Build(fx_.federation, *encoder_).MoveValue();
    path_ = (TempDir() / "integrity_corpus.bin").string();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }

  void CorruptByteAt(std::streamoff offset) {
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(offset);
    file.write(&byte, 1);
  }

  // Saves the corpus, lets `craft` edit the file's bytes, and re-seals the
  // checksums so that Load gets past them.
  void SaveCrafted(const std::function<void(std::vector<char>*)>& craft) {
    ASSERT_TRUE(corpus_.Save(path_).ok());
    std::vector<char> bytes = ReadBytes(path_);
    craft(&bytes);
    ResealChecksums(&bytes);
    WriteBytes(path_, bytes);
  }

  // Offsets of the refs and of the cell rows in the saved file.
  size_t RefsOffset() const {
    return kPayloadOffset + corpus_.rows.data().size() * sizeof(float);
  }
  size_t CellRowsOffset() const {
    return RefsOffset() + corpus_.refs.size() * sizeof(CellRef);
  }

  CovidFixture fx_;
  std::shared_ptr<embed::SemanticEncoder> encoder_;
  CorpusEmbeddings corpus_;
  std::string path_;
};

TEST_F(CorpusIntegrityTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(corpus_.Save(path_).ok());
  // The tmp staging file must not survive a successful save.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
  auto loaded = CorpusEmbeddings::Load(path_).MoveValue();
  EXPECT_EQ(loaded.num_cells(), corpus_.num_cells());
  EXPECT_EQ(loaded.num_relations, corpus_.num_relations);
  EXPECT_EQ(loaded.rows.data(), corpus_.rows.data());
  EXPECT_EQ(loaded.cell_rows, corpus_.cell_rows);
  EXPECT_EQ(loaded.cells_per_relation, corpus_.cells_per_relation);
}

TEST_F(CorpusIntegrityTest, BadMagicIsDataLoss) {
  // A flipped magic byte, and a v2 file ("MIRACOR2", one row per cell):
  // both are kDataLoss naming the format Load reads.
  for (const bool v2 : {false, true}) {
    SCOPED_TRACE(v2 ? "v2" : "flipped");
    if (v2) {
      SaveCrafted([](std::vector<char>* bytes) { (*bytes)[7] = '2'; });
    } else {
      ASSERT_TRUE(corpus_.Save(path_).ok());
      CorruptByteAt(0);
    }
    Status status = CorpusEmbeddings::Load(path_).status();
    EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
    EXPECT_NE(status.message().find("MIRACOR3"), std::string::npos)
        << status.ToString();
  }
}

TEST_F(CorpusIntegrityTest, FlippedHeaderByteIsDataLoss) {
  ASSERT_TRUE(corpus_.Save(path_).ok());
  CorruptByteAt(10);  // inside the header words, after the magic
  Status status = CorpusEmbeddings::Load(path_).status();
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

TEST_F(CorpusIntegrityTest, FlippedPayloadByteIsDataLoss) {
  ASSERT_TRUE(corpus_.Save(path_).ok());
  const auto size = std::filesystem::file_size(path_);
  CorruptByteAt(static_cast<std::streamoff>(size / 2));
  Status status = CorpusEmbeddings::Load(path_).status();
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.ToString();
}

TEST_F(CorpusIntegrityTest, TruncatedPayloadIsDataLoss) {
  ASSERT_TRUE(corpus_.Save(path_).ok());
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size * 3 / 5);
  Status status = CorpusEmbeddings::Load(path_).status();
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

TEST_F(CorpusIntegrityTest, TruncatedHeaderIsDataLoss) {
  ASSERT_TRUE(corpus_.Save(path_).ok());
  std::filesystem::resize_file(path_, 20);  // magic + part of one word
  Status status = CorpusEmbeddings::Load(path_).status();
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

TEST_F(CorpusIntegrityTest, MissingFileIsIoErrorNotDataLoss) {
  Status status = CorpusEmbeddings::Load(path_).status();
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
}

TEST_F(CorpusIntegrityTest, PartialWriteNeverClobbersTheTarget) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  ASSERT_TRUE(corpus_.Save(path_).ok());
  const uint64_t good_digest = [&] {
    std::ifstream in(path_, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return Checksum64::Hash(bytes.data(), bytes.size());
  }();

  // A writer dying 100 bytes in must fail the save, leave the good target
  // untouched, and leave a torn tmp that Load rejects as kDataLoss.
  ASSERT_TRUE(failpoint::Configure("corpus.save.partial",
                                   failpoint::Action::Partial(100))
                  .ok());
  Status save = corpus_.Save(path_);
  EXPECT_TRUE(save.IsIoError()) << save.ToString();
  failpoint::ClearAll();

  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(Checksum64::Hash(bytes.data(), bytes.size()), good_digest);
  EXPECT_TRUE(CorpusEmbeddings::Load(path_).ok());

  ASSERT_TRUE(std::filesystem::exists(path_ + ".tmp"));
  Status torn = CorpusEmbeddings::Load(path_ + ".tmp").status();
  EXPECT_TRUE(torn.IsDataLoss()) << torn.ToString();
}

TEST_F(CorpusIntegrityTest, CraftedShapeBeyondTheFileIsDataLoss) {
  // Valid checksums over a cell count the file cannot hold, over one whose
  // payload size overflows, over one cell fewer than the file holds, over
  // more rows than cells, and over more relations than the payload could
  // count: Load must refuse each before it allocates anything.
  const struct {
    size_t word;
    uint64_t value;
    const char* message;
  } cases[] = {{1, uint64_t{1} << 40, "truncated in payload"},
               {1, ~uint64_t{0} / 4, "overflows"},
               {1, corpus_.refs.size() - 1, "longer than"},
               {3, corpus_.refs.size() + 1, "more rows than cells"},
               {0, uint64_t{1} << 40, "more relations than"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    SaveCrafted([&c](std::vector<char>* bytes) {
      SetHeaderWord(bytes, c.word, c.value);
    });
    Status status = CorpusEmbeddings::Load(path_).status();
    EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << status.ToString();
  }
}

TEST_F(CorpusIntegrityTest, CraftedRelationOutOfRangeIsDataLoss) {
  // ExhaustiveSearcher indexes its per-relation sums by refs[i].relation.
  const auto relation = static_cast<uint32_t>(corpus_.num_relations);
  SaveCrafted([&](std::vector<char>* bytes) {
    std::memcpy(bytes->data() + RefsOffset(), &relation, sizeof(relation));
  });
  Status status = CorpusEmbeddings::Load(path_).status();
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
  EXPECT_NE(status.message().find("relation"), std::string::npos)
      << status.ToString();
}

TEST_F(CorpusIntegrityTest, CraftedRowOutOfRangeIsDataLoss) {
  // The searchers read a cell's vector at rows.Row(cell_rows[i]).
  const auto row = static_cast<uint32_t>(corpus_.num_rows());
  SaveCrafted([&](std::vector<char>* bytes) {
    std::memcpy(bytes->data() + CellRowsOffset(), &row, sizeof(row));
  });
  Status status = CorpusEmbeddings::Load(path_).status();
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
  EXPECT_NE(status.message().find("row"), std::string::npos)
      << status.ToString();
}

TEST_F(CorpusIntegrityTest, SeededMutationsLoadOrFailTyped) {
  // A few hundred seeded byte flips, truncations and extensions of a saved
  // corpus. Every other one re-seals the checksums, so that it reaches the
  // shape checks. Each Load must return OK, kDataLoss or kIoError; none may
  // crash (the sanitizer jobs run this binary).
  ASSERT_TRUE(corpus_.Save(path_).ok());
  const std::vector<char> good = ReadBytes(path_);
  ASSERT_GT(good.size(), kPayloadOffset);
  Rng rng(20261018);
  size_t resealed_rejected = 0;
  for (int m = 0; m < 400; ++m) {
    std::vector<char> bytes = good;
    switch (rng.NextBounded(3)) {
      case 0: {
        // Half the flips land in the magic and header words.
        const size_t flips = 1 + rng.NextBounded(4);
        for (size_t f = 0; f < flips; ++f) {
          const size_t at = rng.NextBernoulli(0.5)
                                ? rng.NextBounded(kPayloadOffset)
                                : rng.NextBounded(bytes.size());
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.NextBounded(8)));
        }
        break;
      }
      case 1:
        bytes.resize(rng.NextBounded(bytes.size()));
        break;
      default:
        for (uint64_t extra = 1 + rng.NextBounded(64); extra > 0; --extra) {
          bytes.push_back(static_cast<char>(rng.NextBounded(256)));
        }
        break;
    }
    const bool reseal = m % 2 == 1;
    if (reseal) ResealChecksums(&bytes);
    WriteBytes(path_, bytes);
    auto loaded = CorpusEmbeddings::Load(path_);
    const Status& status = loaded.status();
    ASSERT_TRUE(status.ok() || status.IsDataLoss() || status.IsIoError())
        << "mutation " << m << ": " << status.ToString();
    if (loaded.ok()) {
      // A loaded corpus must be safe to index by its refs.
      for (const CellRef& ref : loaded->refs) {
        ASSERT_LT(ref.relation, loaded->num_relations) << "mutation " << m;
      }
      ASSERT_EQ(loaded->refs.size(), loaded->cell_rows.size());
      for (uint32_t row : loaded->cell_rows) {
        ASSERT_LT(row, loaded->num_rows()) << "mutation " << m;
      }
    } else if (reseal && bytes.size() >= kPayloadOffset &&
               std::memcmp(bytes.data(), good.data(), 8) == 0) {
      ++resealed_rejected;
    }
  }
  EXPECT_GT(resealed_rejected, 0u);
}

// ---------- Failpoint framework ----------

TEST(FailpointFrameworkTest, RegistryIsStatic) {
  std::vector<std::string> sites = failpoint::RegisteredSites();
  ASSERT_EQ(sites.size(), 9u);
  EXPECT_EQ(sites[0], "embed.encode");
  EXPECT_EQ(sites[1], "index.build");
  EXPECT_EQ(sites[2], "corpus.save");
  EXPECT_EQ(sites[5], "service.admit");
  EXPECT_EQ(sites[6], "service.dispatch");
  EXPECT_EQ(sites[7], "cts.cluster_probe");
  EXPECT_EQ(sites[8], "anns.search");
}

TEST(FailpointFrameworkTest, ConfigureReflectsBuildMode) {
  FailpointGuard guard;
  Status status = failpoint::Configure(
      "corpus.load", failpoint::Action::Error(StatusCode::kIoError));
  if (failpoint::Enabled()) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  } else {
    EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  }
}

TEST(FailpointFrameworkTest, UnknownSiteIsRejected) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  Status status = failpoint::Configure(
      "no.such.site", failpoint::Action::Error(StatusCode::kInternal));
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(FailpointFrameworkTest, SpecGrammar) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  EXPECT_TRUE(failpoint::ConfigureFromString(
                  "corpus.load=error(dataloss,1);anns.search=delay(1.5);"
                  "corpus.save.partial=partial(64)")
                  .ok());
  EXPECT_TRUE(failpoint::ConfigureFromString("corpus.load=off").ok());
  EXPECT_TRUE(
      failpoint::ConfigureFromString("nope=error(io)").IsInvalidArgument());
  EXPECT_TRUE(failpoint::ConfigureFromString("corpus.load=explode(1)")
                  .IsInvalidArgument());
  EXPECT_TRUE(
      failpoint::ConfigureFromString("corpus.load").IsInvalidArgument());
  EXPECT_TRUE(failpoint::ConfigureFromString("corpus.load=error(bogus)")
                  .IsInvalidArgument());
}

TEST(FailpointFrameworkTest, CountLimitedActionsDisarmThemselves) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  const std::string path = (TempDir() / "count_limited.bin").string();
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 32;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  auto corpus = CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();
  ASSERT_TRUE(corpus.Save(path).ok());

  ASSERT_TRUE(failpoint::Configure(
                  "corpus.load",
                  failpoint::Action::Error(StatusCode::kIoError, /*count=*/2))
                  .ok());
  EXPECT_TRUE(CorpusEmbeddings::Load(path).status().IsIoError());
  EXPECT_TRUE(CorpusEmbeddings::Load(path).status().IsIoError());
  EXPECT_TRUE(CorpusEmbeddings::Load(path).ok());  // disarmed after 2 hits
  EXPECT_EQ(failpoint::HitCount("corpus.load"), 2u);
  std::filesystem::remove(path);
}

TEST(FailpointFrameworkTest, DelayActionInjectsLatency) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  const std::string path = (TempDir() / "delayed.bin").string();
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 32;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  auto corpus = CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();
  ASSERT_TRUE(corpus.Save(path).ok());

  ASSERT_TRUE(
      failpoint::Configure("corpus.load", failpoint::Action::Delay(30.0)).ok());
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(CorpusEmbeddings::Load(path).ok());
  EXPECT_GE(ElapsedMs(t0), 20.0);
  std::filesystem::remove(path);
}

// Drives the production code path containing `site` and returns its Status.
// Kept in sync with the kSites registry in common/failpoint.cc.
Status DriveSite(const std::string& site, const CovidFixture& fx,
                 const embed::SemanticEncoder& encoder,
                 const CorpusEmbeddings& corpus, const std::string& good_path,
                 const std::string& scratch_path) {
  if (site == "embed.encode") {
    return CorpusEmbeddings::Build(fx.federation, encoder).status();
  }
  if (site == "index.build") {
    // Non-owning handles: the caller's corpus and encoder outlive the build.
    const std::shared_ptr<const void> unowned;
    return AnnsSearcher::Build(
               std::shared_ptr<const CorpusEmbeddings>(unowned, &corpus),
               std::shared_ptr<const embed::SemanticEncoder>(unowned, &encoder))
        .status();
  }
  if (site == "corpus.save" || site == "corpus.save.partial") {
    return corpus.Save(scratch_path);
  }
  if (site == "corpus.load") {
    return CorpusEmbeddings::Load(good_path).status();
  }
  if (site == "service.admit" || site == "service.dispatch") {
    // A minimal service over a trivial runner: admit-site errors surface as
    // the rejection status, dispatch-site errors fail the dispatched
    // request — either way the injected code reaches the caller.
    service::ServiceOptions options;
    options.worker_threads = 1;
    options.record_query_log = false;
    service::DiscoveryService svc(
        [](const service::ServiceRequest&) -> Result<Ranking> {
          return Ranking{};
        },
        options);
    MIRA_RETURN_NOT_OK(svc.Start());
    service::ServiceResponse response = svc.Search(service::ServiceRequest{});
    svc.Stop();
    return response.status;
  }
  if (site == "cts.cluster_probe" || site == "anns.search") {
    const Method method =
        site == "anns.search" ? Method::kAnns : Method::kCts;
    return SharedEngine()
        .engine->searcher(method)
        ->Search("covid vaccine", {})
        .status();
  }
  return Status::NotImplemented("no failpoint driver for site: " + site);
}

TEST(FailpointMatrixTest, EverySiteSurfacesATypedError) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 32;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  auto corpus = CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();
  const std::string good_path = (TempDir() / "matrix_good.bin").string();
  const std::string scratch_path = (TempDir() / "matrix_scratch.bin").string();
  ASSERT_TRUE(corpus.Save(good_path).ok());

  for (const std::string& site : failpoint::RegisteredSites()) {
    SCOPED_TRACE(site);
    failpoint::ClearAll();
    if (site == "corpus.save.partial") {
      // Partial-type site: the action truncates the write stream; Save must
      // turn that into a typed kIoError rather than a silent torn file.
      ASSERT_TRUE(
          failpoint::Configure(site, failpoint::Action::Partial(32)).ok());
    } else {
      ASSERT_TRUE(
          failpoint::Configure(site,
                               failpoint::Action::Error(StatusCode::kIoError))
              .ok());
    }
    Status status =
        DriveSite(site, fx, encoder, corpus, good_path, scratch_path);
    EXPECT_TRUE(status.IsIoError()) << site << ": " << status.ToString();
    EXPECT_GE(failpoint::HitCount(site), 1u) << site;
  }
  failpoint::ClearAll();
  std::filesystem::remove(good_path);
  std::filesystem::remove(scratch_path);
  std::filesystem::remove(scratch_path + ".tmp");
}

// ---------- CTS probe faults ----------

const CtsSearcher* SharedCts() {
  return static_cast<const CtsSearcher*>(
      SharedEngine().engine->searcher(Method::kCts));
}

TEST(CtsFailpointTest, ProbeDelayPastTheDeadlineDegradesToProbedClusters) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  const CtsSearcher* cts = SharedCts();
  ASSERT_NE(cts, nullptr);
  ASSERT_GE(cts->num_clusters(), 2u) << "no second probe to skip";
  // The deadline covers the medoid match and the first probe; the delay
  // after that probe outlasts it, so the second probe never runs.
  ASSERT_TRUE(failpoint::Configure("cts.cluster_probe",
                                   failpoint::Action::Delay(300.0, 1))
                  .ok());
  DiscoveryOptions options;
  options.control.deadline = Deadline::After(100.0);
  auto result = cts->Search("covid vaccine", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->empty());
  EXPECT_TRUE(result->degraded);
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(failpoint::HitCount("cts.cluster_probe"), 1u);
}

TEST(CtsFailpointTest, ProbeErrorPropagates) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  const CtsSearcher* cts = SharedCts();
  ASSERT_NE(cts, nullptr);
  ASSERT_TRUE(failpoint::Configure(
                  "cts.cluster_probe",
                  failpoint::Action::Error(StatusCode::kIoError))
                  .ok());
  DiscoveryOptions options;
  options.control.deadline = Deadline::After(60'000.0);
  auto result = cts->Search("covid vaccine", options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError()) << result.status().ToString();
}

TEST(FailpointMatrixTest, InjectedCodesRoundTripThroughTheStack) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  // Each failure class keeps its identity through Result<> plumbing.
  const struct {
    StatusCode code;
    bool (Status::*predicate)() const;
  } kCases[] = {
      {StatusCode::kUnavailable, &Status::IsUnavailable},
      {StatusCode::kDataLoss, &Status::IsDataLoss},
      {StatusCode::kInternal, &Status::IsInternal},
  };
  for (const auto& test_case : kCases) {
    ASSERT_TRUE(failpoint::Configure("corpus.load",
                                     failpoint::Action::Error(test_case.code))
                    .ok());
    Status status = CorpusEmbeddings::Load("/nonexistent").status();
    EXPECT_TRUE((status.*test_case.predicate)()) << status.ToString();
  }
}

// ---------- Service overload matrix: reject vs evict vs degrade ----------

// A service over a synthetic runner whose work is a plain sleep, so each
// overload outcome is forced deterministically via the service.* failpoints.
struct ProbeService {
  explicit ProbeService(service::ServiceOptions options,
                        double runner_sleep_ms = 0.0) {
    options.record_query_log = false;
    svc = std::make_unique<service::DiscoveryService>(
        [this, runner_sleep_ms](const service::ServiceRequest&)
            -> Result<Ranking> {
          runner_calls.fetch_add(1, std::memory_order_relaxed);
          if (runner_sleep_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(runner_sleep_ms));
          }
          return Ranking{{DiscoveryHit{1, 1.0f}}};
        },
        options);
  }
  std::unique_ptr<service::DiscoveryService> svc;
  std::atomic<int> runner_calls{0};
};

TEST(ServiceFailpointTest, ForcedShedRejectsWithInjectedCode) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  // Spec-grammar path on purpose: exercises the new resource_exhausted token.
  ASSERT_TRUE(failpoint::ConfigureFromString(
                  "service.admit=error(resource_exhausted)")
                  .ok());
  ProbeService probe(service::ServiceOptions{});
  ASSERT_TRUE(probe.svc->Start().ok());
  service::ServiceResponse response =
      probe.svc->Search(service::ServiceRequest{});
  EXPECT_EQ(response.outcome, service::RequestOutcome::kRejected);
  EXPECT_TRUE(response.status.IsResourceExhausted())
      << response.status.ToString();
  EXPECT_GT(response.retry_after_ms, 0.0);
  EXPECT_EQ(probe.runner_calls.load(), 0) << "shed request must never run";
  EXPECT_GE(failpoint::HitCount("service.admit"), 1u);
}

TEST(ServiceFailpointTest, DispatchStallEvictsExpiredQueuedRequests) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  service::ServiceOptions options;
  options.worker_threads = 1;
  // Keep pressure-degradation out of this test's way.
  options.pressure_degrade_fraction = 1.0;
  ProbeService probe(options);
  ASSERT_TRUE(probe.svc->Start().ok());

  // Stall the single worker 60 ms on the first dispatch; the follower's
  // 5 ms deadline dies in the queue behind it.
  ASSERT_TRUE(failpoint::Configure("service.dispatch",
                                   failpoint::Action::Delay(60.0, 1))
                  .ok());
  struct Waiter {
    Mutex mu;
    CondVar cv;
    int pending MIRA_GUARDED_BY(mu) = 0;
    std::vector<service::ServiceResponse> responses MIRA_GUARDED_BY(mu);
  };
  Waiter waiter;
  auto submit = [&](double deadline_ms) {
    service::ServiceRequest request;
    if (deadline_ms > 0.0) {
      request.options.control.deadline = Deadline::After(deadline_ms);
    }
    {
      MutexLock lock(waiter.mu);
      ++waiter.pending;
    }
    probe.svc->Submit(std::move(request),
                      [&waiter](service::ServiceResponse response) {
                        MutexLock lock(waiter.mu);
                        waiter.responses.push_back(std::move(response));
                        --waiter.pending;
                        waiter.cv.NotifyAll();
                      });
  };
  submit(0.0);  // unbounded; eats the 60 ms stall
  submit(5.0);  // expires while queued -> evicted
  {
    MutexLock lock(waiter.mu);
    while (waiter.pending > 0) waiter.cv.Wait(lock);
  }
  probe.svc->Stop();

  int evicted = 0;
  for (const service::ServiceResponse& response : [&] {
         MutexLock lock(waiter.mu);
         return waiter.responses;
       }()) {
    if (response.outcome == service::RequestOutcome::kEvicted) {
      ++evicted;
      EXPECT_TRUE(response.status.IsDeadlineExceeded())
          << response.status.ToString();
    }
  }
  EXPECT_EQ(evicted, 1);
  // Only the unbounded request reached the runner.
  EXPECT_EQ(probe.runner_calls.load(), 1);
}

TEST(ServiceFailpointTest, QueuePressureDegradesPreemptively) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  service::ServiceOptions options;
  options.worker_threads = 1;
  options.admission.max_queue_depth = 8;
  options.admission.default_quota.refill_qps = 10000.0;
  options.admission.default_quota.burst = 100.0;
  options.pressure_degrade_fraction = 0.25;  // depth >= 2 triggers
  options.pressure_budget_ms = 15.0;
  options.record_query_log = false;

  // The runner records the budget each dispatched request arrives with: the
  // pressure ladder must impose a finite deadline on unbounded requests.
  std::atomic<int> finite_budgets{0};
  service::DiscoveryService svc(
      [&finite_budgets](const service::ServiceRequest& request)
          -> Result<Ranking> {
        if (!request.options.control.deadline.infinite()) {
          finite_budgets.fetch_add(1, std::memory_order_relaxed);
        }
        return Ranking{};
      },
      options);
  ASSERT_TRUE(svc.Start().ok());
  // Stall every dispatch 10 ms so the queue stays deep while draining.
  ASSERT_TRUE(
      failpoint::Configure("service.dispatch", failpoint::Action::Delay(10.0))
          .ok());

  struct Waiter {
    Mutex mu;
    CondVar cv;
    int pending MIRA_GUARDED_BY(mu) = 0;
    int preemptive MIRA_GUARDED_BY(mu) = 0;
  };
  Waiter waiter;
  constexpr int kRequests = 6;
  {
    MutexLock lock(waiter.mu);
    waiter.pending = kRequests;
  }
  for (int i = 0; i < kRequests; ++i) {
    svc.Submit(service::ServiceRequest{},  // no deadline of their own
               [&waiter](service::ServiceResponse response) {
                 MutexLock lock(waiter.mu);
                 if (response.preemptively_degraded) ++waiter.preemptive;
                 --waiter.pending;
                 waiter.cv.NotifyAll();
               });
  }
  {
    MutexLock lock(waiter.mu);
    while (waiter.pending > 0) waiter.cv.Wait(lock);
  }
  svc.Stop();

  int preemptive;
  {
    MutexLock lock(waiter.mu);
    preemptive = waiter.preemptive;
  }
  EXPECT_GT(preemptive, 0)
      << "sustained queue depth never tripped the pressure ladder";
  EXPECT_EQ(finite_budgets.load(), preemptive)
      << "every preemptively degraded request must run on a finite budget";
  EXPECT_EQ(svc.GetStats().preemptively_degraded,
            static_cast<uint64_t>(preemptive));
}

TEST(ServiceFailpointTest, TenantAccountingHoldsUnderRandomSchedules) {
  // Seeded random schedules: three tenants submit through small quotas and
  // queues, with deadlines, cancellations, failing and slow runs, an armed
  // admission shed and armed dispatch errors or stalls, and a Stop that may
  // drain a full queue. Whatever the interleaving, per tenant every
  // submission ends in exactly one outcome: submitted = admitted + rejected
  // (shed), admitted = completed + evicted + failed, and each tenant slice
  // counts what its callbacks saw.
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  const char* kFields[] = {"admitted", "completed", "rejected", "evicted",
                           "failed"};
  auto counter = [](const std::string& tenant, const char* field) {
    return obs::MetricRegistry::Global()
        .GetCounter("mira.tenant." + tenant + "." + field)
        .value();
  };
  std::map<service::RequestOutcome, uint64_t> all_seeds;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FailpointGuard guard;
    Rng rng(seed * 7919);
    std::vector<std::string> tenants;
    std::map<std::string, std::map<std::string, uint64_t>> before;
    for (int t = 0; t < 3; ++t) {
      tenants.push_back("prop" + std::to_string(seed) + "-" +
                        std::to_string(t));
      for (const char* field : kFields) {
        before[tenants.back()][field] = counter(tenants.back(), field);
      }
    }

    service::ServiceOptions options;
    options.worker_threads = 1 + rng.NextBounded(3);
    options.admission.max_queue_depth = 2 + rng.NextBounded(5);
    options.admission.default_quota.burst =
        static_cast<double>(4 + rng.NextBounded(12));
    options.admission.default_quota.refill_qps =
        rng.NextBernoulli(0.5) ? 0.0 : 2000.0;
    options.record_query_log = false;
    service::DiscoveryService svc(
        [](const service::ServiceRequest& request) -> Result<Ranking> {
          if (request.query == "fail") return Status::Internal("run failed");
          if (request.query == "slow") {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          return Ranking{{DiscoveryHit{1, 1.0f}}};
        },
        options);
    ASSERT_TRUE(svc.Start().ok());
    if (rng.NextBernoulli(0.7)) {
      ASSERT_TRUE(failpoint::Configure(
                      "service.admit",
                      failpoint::Action::Error(
                          StatusCode::kResourceExhausted,
                          static_cast<int64_t>(1 + rng.NextBounded(6))))
                      .ok());
    }
    const int64_t dispatch_count = static_cast<int64_t>(1 + rng.NextBounded(8));
    ASSERT_TRUE(failpoint::Configure(
                    "service.dispatch",
                    rng.NextBernoulli(0.5)
                        ? failpoint::Action::Error(StatusCode::kInternal,
                                                   dispatch_count)
                        : failpoint::Action::Delay(3.0, dispatch_count))
                    .ok());

    struct Seen {
      Mutex mu;
      CondVar cv;
      int pending MIRA_GUARDED_BY(mu) = 0;
      std::map<std::string, std::map<service::RequestOutcome, uint64_t>>
          outcomes MIRA_GUARDED_BY(mu);
    };
    Seen seen;
    std::map<std::string, uint64_t> submitted;
    constexpr int kRequests = 60;
    {
      MutexLock lock(seen.mu);
      seen.pending = kRequests;
    }
    for (int i = 0; i < kRequests; ++i) {
      service::ServiceRequest request;
      request.tenant = tenants[rng.NextBounded(tenants.size())];
      const uint64_t kind = rng.NextBounded(10);
      request.query = kind < 2 ? "fail" : kind < 5 ? "slow" : "ok";
      if (rng.NextBernoulli(0.25)) {
        request.options.control.deadline =
            Deadline::After(rng.NextUniform(0.1, 4.0));
      }
      if (rng.NextBernoulli(0.1)) {
        request.options.control.cancel = CancellationToken::Make();
        request.options.control.cancel.RequestCancel();
      }
      const std::string tenant = request.tenant;
      ++submitted[tenant];
      svc.Submit(std::move(request),
                 [&seen, tenant](service::ServiceResponse response) {
                   MutexLock lock(seen.mu);
                   ++seen.outcomes[tenant][response.outcome];
                   --seen.pending;
                   seen.cv.NotifyAll();
                 });
      if (rng.NextBernoulli(0.3)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.NextBounded(1500)));
      }
    }
    // Half the schedules stop at once, draining whatever is still queued.
    if (rng.NextBernoulli(0.5)) svc.Stop();
    {
      MutexLock lock(seen.mu);
      while (seen.pending > 0) seen.cv.Wait(lock);
    }
    svc.Stop();

    const service::DiscoveryService::Stats stats = svc.GetStats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
    EXPECT_EQ(stats.admitted, stats.completed + stats.evicted + stats.failed);
    MutexLock lock(seen.mu);
    for (const std::string& tenant : tenants) {
      SCOPED_TRACE(tenant);
      auto slice = [&](const char* field) {
        return counter(tenant, field) - before[tenant][field];
      };
      std::map<service::RequestOutcome, uint64_t>& saw = seen.outcomes[tenant];
      EXPECT_EQ(submitted[tenant], slice("admitted") + slice("rejected"));
      EXPECT_EQ(slice("admitted"),
                slice("completed") + slice("evicted") + slice("failed"));
      EXPECT_EQ(slice("completed"), saw[service::RequestOutcome::kCompleted]);
      EXPECT_EQ(slice("rejected"), saw[service::RequestOutcome::kRejected]);
      EXPECT_EQ(slice("evicted"), saw[service::RequestOutcome::kEvicted]);
      EXPECT_EQ(slice("failed"), saw[service::RequestOutcome::kFailed]);
      for (const auto& [outcome, count] : saw) all_seeds[outcome] += count;
    }
  }
  // The schedules reach every outcome.
  for (service::RequestOutcome outcome :
       {service::RequestOutcome::kCompleted, service::RequestOutcome::kRejected,
        service::RequestOutcome::kEvicted, service::RequestOutcome::kFailed}) {
    EXPECT_GT(all_seeds[outcome], 0u) << static_cast<int>(outcome);
  }
}

// ---------- LoadWithRetry + failpoints ----------

TEST(RetryIntegrationTest, LoadWithRetryRecoversFromTransientFaults) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  const std::string path = (TempDir() / "retry_corpus.bin").string();
  CovidFixture fx = MakeCovidFixture();
  embed::EncoderOptions opts;
  opts.dim = 32;
  embed::SemanticEncoder encoder(opts, fx.lexicon);
  auto corpus = CorpusEmbeddings::Build(fx.federation, encoder).MoveValue();
  ASSERT_TRUE(corpus.Save(path).ok());

  // Fail twice transiently, then succeed: default retry budget (4 attempts)
  // absorbs the outage.
  ASSERT_TRUE(failpoint::Configure(
                  "corpus.load",
                  failpoint::Action::Error(StatusCode::kIoError, /*count=*/2))
                  .ok());
  RetryOptions retry;
  retry.initial_backoff_ms = 0.1;
  retry.max_backoff_ms = 0.5;
  auto loaded = CorpusEmbeddings::LoadWithRetry(path, retry);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(failpoint::HitCount("corpus.load"), 2u);
  std::filesystem::remove(path);
}

TEST(RetryIntegrationTest, DataLossIsNeverRetried) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  ASSERT_TRUE(failpoint::Configure(
                  "corpus.load",
                  failpoint::Action::Error(StatusCode::kDataLoss))
                  .ok());
  RetryOptions retry;
  retry.initial_backoff_ms = 0.1;
  auto loaded = CorpusEmbeddings::LoadWithRetry("/nonexistent", retry);
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
  // One attempt only: corruption does not heal with retries.
  EXPECT_EQ(failpoint::HitCount("corpus.load"), 1u);
}

// ---------- Engine deadlines and the degradation ladder ----------

TEST(EngineDeadlineTest, GenerousDeadlineMatchesUnbounded) {
  const EngineFixture& fx = SharedEngine();
  for (Method method : kAllMethods) {
    SCOPED_TRACE(std::string(MethodToString(method)));
    DiscoveryOptions unbounded;
    auto baseline = fx.engine->Search(method, "covid vaccine", unbounded);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_FALSE(baseline->degraded);
    EXPECT_FALSE(baseline->partial);

    DiscoveryOptions bounded;
    bounded.control.deadline = Deadline::After(60'000.0);
    auto controlled = fx.engine->Search(method, "covid vaccine", bounded);
    ASSERT_TRUE(controlled.ok()) << controlled.status().ToString();
    EXPECT_FALSE(controlled->degraded);
    EXPECT_FALSE(controlled->partial);
    ExpectSameRanking(*baseline, *controlled);
  }
}

// The unbounded cached ExS over the shared engine's corpus: the ranking the
// engine's deadline fallback must reproduce.
Ranking UnboundedCachedExs(const EngineFixture& fx, const std::string& query) {
  ExsOptions exs;
  exs.reuse_corpus_embeddings = true;
  const ExhaustiveSearcher cached(
      &fx.engine->federation(),
      std::shared_ptr<const CorpusEmbeddings>(std::shared_ptr<void>(),
                                              &fx.engine->corpus()),
      std::shared_ptr<const embed::SemanticEncoder>(std::shared_ptr<void>(),
                                                    &fx.engine->encoder()),
      exs);
  return cached.Search(query, DiscoveryOptions{}).MoveValue();
}

TEST(EngineDeadlineTest, PreExpiredDeadlineStillAnswersDegraded) {
  const EngineFixture& fx = SharedEngine();
  const Ranking expected = UnboundedCachedExs(fx, "covid vaccine");
  ASSERT_FALSE(expected.empty());
  for (Method method : kAllMethods) {
    SCOPED_TRACE(std::string(MethodToString(method)));
    DiscoveryOptions options;
    options.control.deadline = Deadline::After(0.0);
    auto t0 = std::chrono::steady_clock::now();
    auto result = fx.engine->Search(method, "covid vaccine", options);
    double ms = ElapsedMs(t0);
    // Every primary fails fast on a zero budget; the fallback is the cached
    // ExS with the deadline lifted: the full, exact ranking, never partial.
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->degraded);
    EXPECT_FALSE(result->partial);
    ExpectSameRanking(*result, expected);
    // Bound is deliberately loose for shared CI runners; a hang or a full
    // un-budgeted faithful scan would blow far past it.
    EXPECT_LT(ms, 2000.0);
  }
}

TEST(EngineDeadlineTest, OneMillisecondBudgetReturnsPromptly) {
  const EngineFixture& fx = SharedEngine();
  DiscoveryOptions options;
  options.control.deadline = Deadline::After(1.0);
  auto t0 = std::chrono::steady_clock::now();
  auto result = fx.engine->Search(Method::kExhaustive, "covid vaccine",
                                  options);
  double ms = ElapsedMs(t0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->empty());
  EXPECT_LT(ms, 2000.0);
}

TEST(EngineDeadlineTest, CancellationPropagatesWithoutFallback) {
  const EngineFixture& fx = SharedEngine();
  for (Method method : kAllMethods) {
    SCOPED_TRACE(std::string(MethodToString(method)));
    DiscoveryOptions options;
    options.control.cancel = CancellationToken::Make();
    options.control.cancel.RequestCancel();
    auto result = fx.engine->Search(method, "covid vaccine", options);
    // kCancelled means the caller walked away: no ladder, no partial answer.
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  }
}

TEST(EngineDeadlineTest, SearchTracedFallsBackToCachedExsOnly) {
  const EngineFixture& fx = SharedEngine();
  DiscoveryOptions options;
  options.control.deadline = Deadline::After(0.0);
  auto traced = fx.engine->SearchTraced(Method::kCts, "covid vaccine", options);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_TRUE(traced->ranking.degraded);
  EXPECT_FALSE(traced->ranking.partial);
  EXPECT_FALSE(traced->ranking.empty());
  // A missed CTS deadline goes straight to the cached ExS: no other index
  // is tried under the expired budget.
  for (const obs::SpanRecord& span : traced->trace.spans()) {
    EXPECT_NE(std::string_view(span.name).substr(0, 5), "anns.") << span.name;
  }
}

TEST(SearcherDeadlineTest, PrimarySearchersFailFastWithoutTheLadder) {
  // Below the engine there is no fallback: a pre-expired budget surfaces as
  // kDeadlineExceeded from each individual searcher.
  const EngineFixture& fx = SharedEngine();
  DiscoveryOptions options;
  options.control.deadline = Deadline::After(0.0);
  for (Method method : kAllMethods) {
    SCOPED_TRACE(std::string(MethodToString(method)));
    const Searcher* searcher = fx.engine->searcher(method);
    ASSERT_NE(searcher, nullptr);
    auto result = searcher->Search("covid vaccine", options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDeadlineExceeded())
        << result.status().ToString();
  }
}

TEST(SearcherDeadlineTest, UncontrolledQueryFlagsStayClean) {
  const EngineFixture& fx = SharedEngine();
  DiscoveryOptions options;
  EXPECT_FALSE(options.control.active());
  auto result = fx.engine->Search(Method::kAnns, "covid vaccine", options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->degraded);
  EXPECT_FALSE(result->partial);
}

// ---------- Concurrency stress (runs under TSan in CI) ----------

TEST(RobustnessStressTest, CancellationRacesActiveSearches) {
  const EngineFixture& fx = SharedEngine();
  constexpr int kRounds = 8;
  constexpr int kThreads = 4;
  constexpr int kSearchesPerThread = 4;
  for (int round = 0; round < kRounds; ++round) {
    CancellationToken token = CancellationToken::Make();
    DiscoveryOptions options;
    options.control.cancel = token;
    options.control.deadline = Deadline::After(5.0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&fx, &options] {
        const Method methods[] = {Method::kCts, Method::kAnns,
                                  Method::kExhaustive};
        for (int i = 0; i < kSearchesPerThread; ++i) {
          auto result = fx.engine->Search(methods[i % 3], "covid vaccine",
                                          options);
          // A deadline miss always degrades to an answer; only cancellation
          // (or nothing) may surface as an error.
          EXPECT_TRUE(result.ok() || result.status().IsCancelled())
              << result.status().ToString();
        }
      });
    }
    token.RequestCancel();  // races the in-flight searches, by design
    for (auto& thread : threads) thread.join();
  }
}

TEST(RobustnessStressTest, CancelRacesParallelForCancellable) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    CancellationToken token = CancellationToken::Make();
    QueryControl control;
    control.cancel = token;
    std::atomic<size_t> executed{0};
    std::thread canceller([&token] { token.RequestCancel(); });
    Status status =
        ParallelForCancellable(&pool, 0, 256, &control, [&](size_t) {
          ++executed;
          return Status::OK();
        });
    canceller.join();
    EXPECT_TRUE(status.ok() || status.IsCancelled()) << status.ToString();
    EXPECT_LE(executed.load(), 256u);
  }
}

TEST(RobustnessStressTest, ConcurrentFailpointConfigurationIsSafe) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "built with MIRA_FAILPOINTS=OFF";
  }
  FailpointGuard guard;
  // Arm/clear/trigger from many threads at once: the registry mutex must
  // keep this free of races (TSan checks) and of torn actions.
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&stop, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (t % 2 == 0) {
          Status st = failpoint::Configure(
              "corpus.load", failpoint::Action::Error(StatusCode::kIoError));
          EXPECT_TRUE(st.ok());
          failpoint::Clear("corpus.load");
        } else {
          Status st = CorpusEmbeddings::Load("/nonexistent").status();
          EXPECT_FALSE(st.ok());  // injected or genuine miss, never OK
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& thread : threads) thread.join();
}

}  // namespace
}  // namespace mira::discovery
