#ifndef MIRA_BENCH_HARNESS_H_
#define MIRA_BENCH_HARNESS_H_

// Shared experiment harness of the paper-reproduction benchmarks: builds the
// WikiTables-flavored workload, the three proposed searchers and the five
// baselines over the LD/MD/SD partitions, runs the 60-query evaluation and
// prints rows in the layout of the paper's tables.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/adh.h"
#include "baselines/baseline_common.h"
#include "baselines/mdr.h"
#include "baselines/tcs.h"
#include "baselines/tml.h"
#include "baselines/ws.h"
#include "bench_json.h"
#include "common/timer.h"
#include "datagen/workload.h"
#include "discovery/engine.h"
#include "ir/metrics.h"
#include "obs/debug_server.h"

namespace mira::bench {

/// Scale and model knobs; MIRA_BENCH_TABLES / MIRA_BENCH_DIM environment
/// variables override the LD table count and the embedding dimension.
struct HarnessConfig {
  /// LD corpus size in tables; MD and SD are 50% / 10% partitions of it.
  size_t ld_tables = 1500;
  /// Embedding dimension (the paper uses mpnet's 768; 768 is supported but
  /// laptop-scale runs default lower — all trends are dimension-stable).
  size_t encoder_dim = 192;
  /// Queries generated per length class (paper: 60 queries total).
  size_t queries_per_class = 20;
  /// Fraction of queries (per class) used to fit the trainable baselines,
  /// mirroring the paper's 1,918 / 1,199 pair split.
  double train_fraction = 0.4;
  /// Ranking depth used for quality evaluation.
  size_t eval_depth = 100;
  /// Baseline semantic model strength: the comparison systems embed with a
  /// weaker synonym-collapsing blend (vanilla-BERT-grade) than the mpnet-
  /// grade encoder of the proposed methods.
  float baseline_concept_blend = 0.62f;
  /// Corpus flavor: false = WikiTables-like (default), true = European Data
  /// Portal-like (more numeric cells, description-only context) — the
  /// paper's second evaluation corpus. MIRA_BENCH_EDP=1 selects it.
  bool edp_flavor = false;
  uint64_t seed = 4242;

  static HarnessConfig FromEnv();
};

/// One evaluated method on one partition/class. Latency fields come from an
/// obs::Histogram over the per-query wall times (bucket-interpolated
/// percentiles; see src/obs/metrics.h).
struct MethodRun {
  std::string method;
  ir::EvalResult quality;
  double mean_query_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

/// The three partitions of §5 [Datasets].
struct Partition {
  std::string name;     // "LD" / "MD" / "SD"
  double fraction;      // 1.0 / 0.5 / 0.1
};

inline const std::vector<Partition>& Partitions() {
  static const std::vector<Partition> kPartitions = {
      {"LD", 1.0}, {"MD", 0.5}, {"SD", 0.1}};
  return kPartitions;
}

/// All eight systems built over one federation view.
class MethodStack {
 public:
  /// Builds the proposed engine and all five baselines over `view`.
  static std::unique_ptr<MethodStack> Build(
      const datagen::Workload& workload, const datagen::Workload::View& view,
      const HarnessConfig& config);

  /// Method names in the paper's canonical order.
  static const std::vector<std::string>& MethodNames();

  const discovery::Searcher* Get(const std::string& method) const;
  const discovery::DiscoveryEngine& engine() const { return *engine_; }

 private:
  std::unique_ptr<discovery::DiscoveryEngine> engine_;
  std::shared_ptr<const baselines::CorpusFieldStats> stats_;
  std::shared_ptr<embed::SemanticEncoder> baseline_encoder_;
  std::unique_ptr<baselines::MdrSearcher> mdr_;
  std::unique_ptr<baselines::WsSearcher> ws_;
  std::unique_ptr<baselines::TcsSearcher> tcs_;
  std::unique_ptr<baselines::AdhSearcher> adh_;
  std::unique_ptr<baselines::TmlSearcher> tml_;
};

/// Whole-experiment driver; builds the workload once and one MethodStack per
/// partition lazily.
class Harness {
 public:
  explicit Harness(HarnessConfig config = HarnessConfig::FromEnv());

  /// Runs every method on the evaluation queries of `cls` over partition
  /// `partition`, returning quality and mean latency per method.
  std::vector<MethodRun> RunClass(const Partition& partition,
                                  datagen::QueryClass cls);

  /// Prints a paper-style quality table (Tables 1-3) for one query class.
  void PrintQualityTable(const std::string& title, datagen::QueryClass cls);

  /// Prints Table 4 (query time, CTS vs ANNS) across partitions and classes.
  void PrintQueryTimeTable();

  /// Prints Figure 3's data: query time of all methods across partitions.
  void PrintPerformanceFigure();

  /// Runs the evaluation queries of `cls` through SearchTraced for the three
  /// proposed methods and prints the per-span mean time and counter averages
  /// (where the milliseconds of Table 4 / Figure 3 actually go). No-op with a
  /// note when tracing is compiled out (MIRA_OBS=OFF).
  void PrintSpanBreakdown(const Partition& partition, datagen::QueryClass cls);

  /// The proposed DiscoveryEngine built over `partition` (building the
  /// partition's method stack on first use). For debugz collectors and the
  /// --hold query loop; stays valid for the harness's lifetime.
  const discovery::DiscoveryEngine& EngineFor(const Partition& partition);

  const datagen::Workload& workload() const { return workload_; }
  const HarnessConfig& config() const { return config_; }

  /// Evaluation queries (the non-training split) of one class.
  std::vector<datagen::GeneratedQuery> EvalQueries(datagen::QueryClass cls) const;

  /// Writes BENCH_<bench_name>.json containing the harness config plus one
  /// row per (partition, class, method) measured by RunClass so far; only the
  /// rows of `cls` when given.
  [[nodiscard]] Status WriteJson(
      const std::string& bench_name,
      std::optional<datagen::QueryClass> cls = std::nullopt) const;

  /// Runs up to `max_queries` eval queries of `cls` through SearchTraced for
  /// the three proposed methods and writes TRACE_<bench_name>.json (into
  /// $MIRA_BENCH_JSON_DIR, or the working directory) in the Chrome
  /// trace_event format — load it in chrome://tracing / ui.perfetto.dev.
  /// No-op when tracing is compiled out (MIRA_OBS=OFF).
  [[nodiscard]] Status WriteChromeTrace(const std::string& bench_name,
                                        const Partition& partition,
                                        datagen::QueryClass cls,
                                        size_t max_queries = 4);

 private:
  struct RecordedRun {
    std::string partition;
    std::string cls;
    MethodRun run;
  };

  MethodStack* StackFor(const Partition& partition);
  const datagen::Workload::View& ViewFor(const Partition& partition);

  HarnessConfig config_;
  datagen::Workload workload_;
  std::map<std::string, datagen::Workload::View> views_;
  std::map<std::string, std::unique_ptr<MethodStack>> stacks_;
  std::vector<RecordedRun> recorded_;
};

/// Live-introspection flags shared by the bench binaries:
///
///   --debug-server[=PORT]  start the embedded debugz HTTP server
///                          (obs/debug_server.h) on 127.0.0.1; PORT omitted
///                          or 0 picks an ephemeral port, printed to stderr
///                          as "[bench] debugz listening on ...".
///   --hold[=SECONDS]       after the binary's normal output, keep the
///                          process alive driving a continuous query loop —
///                          /profilez samples in process CPU time, so an
///                          idle hold would profile nothing. SECONDS omitted
///                          = run until SIGINT/SIGTERM.
///
/// Binaries taking no other arguments reject anything unrecognized
/// (parse_error) rather than silently running the default workload.
struct ServeOptions {
  bool server = false;
  uint16_t port = 0;
  bool hold = false;
  double hold_seconds = 0.0;  ///< 0 = run until SIGINT/SIGTERM.
  bool parse_error = false;
};

/// Parses argv; prints usage to stderr on error (caller exits non-zero).
ServeOptions ParseServeArgs(int argc, char** argv);

/// The live-introspection tail of a bench run. When `options.server` is set,
/// starts a DebugServer wired to the process's observability state: a
/// collector re-publishing `engine`'s resource/pool gauges (when non-null)
/// and a "SIMD dispatch" /statusz section. When `options.hold` is set, then
/// drives `drive()` in a loop (recording into QueryLog / promoting slow
/// traces as usual) until the hold window closes or SIGINT/SIGTERM arrives.
/// Returns immediately when neither flag is set. Under MIRA_OBS=OFF the
/// server cannot start; --debug-server reports NotImplemented.
[[nodiscard]] Status ServeAndHold(const ServeOptions& options,
                                  const discovery::DiscoveryEngine* engine,
                                  const std::function<void()>& drive);

/// Variant with a configure hook, invoked with the DebugServer after the
/// standard wiring but before Start(): binaries that own extra debugz state
/// register their pages here (e.g. bench_service_load registers the
/// DiscoveryService's /servicez). Ignored when the server is not requested.
[[nodiscard]] Status ServeAndHold(
    const ServeOptions& options, const discovery::DiscoveryEngine* engine,
    const std::function<void()>& drive,
    const std::function<void(obs::DebugServer&)>& configure);

}  // namespace mira::bench

#endif  // MIRA_BENCH_HARNESS_H_
