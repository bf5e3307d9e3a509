#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "vecmath/simd.h"

namespace mira::bench {

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  long parsed = std::atol(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonValue(const std::variant<std::string, double>& value,
                     std::string* out) {
  if (const auto* s = std::get_if<std::string>(&value)) {
    AppendJsonString(*s, out);
  } else {
    double d = std::get<double>(value);
    // JSON has no Inf/NaN literals.
    *out += std::isfinite(d) ? StrFormat("%.12g", d) : "null";
  }
}

void AppendJsonObject(
    const std::vector<std::pair<std::string, std::variant<std::string, double>>>&
        fields,
    std::string* out) {
  out->push_back('{');
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) *out += ", ";
    AppendJsonString(fields[i].first, out);
    *out += ": ";
    AppendJsonValue(fields[i].second, out);
  }
  out->push_back('}');
}

}  // namespace

BenchJsonWriter::BenchJsonWriter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchJsonWriter::SetMeta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void BenchJsonWriter::SetMeta(const std::string& key, double value) {
  meta_.emplace_back(key, value);
}

void BenchJsonWriter::AddRow() { rows_.emplace_back(); }

void BenchJsonWriter::Set(const std::string& key, const std::string& value) {
  MIRA_CHECK(!rows_.empty());
  rows_.back().emplace_back(key, value);
}

void BenchJsonWriter::Set(const std::string& key, double value) {
  MIRA_CHECK(!rows_.empty());
  rows_.back().emplace_back(key, value);
}

std::string BenchJsonWriter::Render() const {
  std::string out = "{\n  \"bench\": ";
  AppendJsonString(bench_name_, &out);
  out += ",\n  \"meta\": ";
  AppendJsonObject(meta_, &out);
  out += ",\n  \"rows\": [";
  for (size_t i = 0; i < rows_.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    AppendJsonObject(rows_[i], &out);
  }
  out += rows_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

Status BenchJsonWriter::Write() const {
  const char* dir = std::getenv("MIRA_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/BENCH_" + bench_name_ + ".json"
                         : "BENCH_" + bench_name_ + ".json";
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  out << Render();
  if (!out.good()) return Status::IoError("write failed: " + path);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
  return Status::OK();
}

HarnessConfig HarnessConfig::FromEnv() {
  HarnessConfig config;
  config.ld_tables = EnvSize("MIRA_BENCH_TABLES", config.ld_tables);
  config.encoder_dim = EnvSize("MIRA_BENCH_DIM", config.encoder_dim);
  config.queries_per_class =
      EnvSize("MIRA_BENCH_QUERIES", config.queries_per_class);
  const char* edp = std::getenv("MIRA_BENCH_EDP");
  if (edp != nullptr && edp[0] == '1') config.edp_flavor = true;
  return config;
}

const std::vector<std::string>& MethodStack::MethodNames() {
  static const std::vector<std::string> kNames = {"CTS", "ANNS", "ExS", "MDR",
                                                  "WS",  "TCS",  "AdH", "TML"};
  return kNames;
}

std::unique_ptr<MethodStack> MethodStack::Build(
    const datagen::Workload& workload, const datagen::Workload::View& view,
    const HarnessConfig& config) {
  auto stack = std::make_unique<MethodStack>();

  // Proposed methods: mpnet-grade encoder, faithful ExS.
  discovery::EngineOptions engine_options;
  engine_options.encoder.dim = config.encoder_dim;
  engine_options.cts.umap.n_epochs = 120;
  stack->engine_ = discovery::DiscoveryEngine::Build(
                       view.federation, workload.bank.lexicon(), engine_options)
                       .MoveValue();

  // Baselines: shared field statistics and a weaker semantic model (the
  // comparison systems use vanilla BERT / word-embedding-era encoders).
  stack->stats_ = baselines::CorpusFieldStats::Build(view.federation);
  embed::EncoderOptions baseline_encoder_options = engine_options.encoder;
  baseline_encoder_options.concept_blend = config.baseline_concept_blend;
  stack->baseline_encoder_ = std::make_shared<embed::SemanticEncoder>(
      baseline_encoder_options, workload.bank.lexicon());
  {
    auto frequencies = std::make_shared<embed::TokenFrequencies>();
    for (const auto& relation : view.federation.relations()) {
      frequencies->AddText(relation.ConsolidatedText());
    }
    stack->baseline_encoder_->SetTokenFrequencies(std::move(frequencies));
  }

  // Training pairs for WS/TCS from the training split of the queries: all
  // positive judgments plus a spread of explicit negatives.
  size_t train_per_class = static_cast<size_t>(
      config.train_fraction * static_cast<double>(config.queries_per_class));
  std::map<int, size_t> seen_per_class;
  std::vector<baselines::TrainingPair> training;
  for (const auto& query : workload.queries) {
    if (seen_per_class[static_cast<int>(query.cls)]++ >= train_per_class) {
      continue;
    }
    for (table::RelationId t = 0; t < view.federation.size(); ++t) {
      int grade = view.qrels.Grade(query.id, t);
      if (grade > 0 || t % 29 == 0) {
        training.push_back({query.text, t, grade});
      }
    }
  }

  stack->mdr_ = std::make_unique<baselines::MdrSearcher>(stack->stats_);
  stack->ws_ = baselines::WsSearcher::Build(stack->stats_, training).MoveValue();
  stack->tcs_ = baselines::TcsSearcher::Build(stack->stats_,
                                              stack->baseline_encoder_,
                                              view.federation, training)
                    .MoveValue();
  stack->adh_ = std::make_unique<baselines::AdhSearcher>(
      view.federation, stack->stats_, stack->baseline_encoder_);
  stack->tml_ = std::make_unique<baselines::TmlSearcher>(
      view.federation, stack->stats_, stack->baseline_encoder_);
  return stack;
}

const discovery::Searcher* MethodStack::Get(const std::string& method) const {
  if (method == "ExS") return engine_->searcher(discovery::Method::kExhaustive);
  if (method == "ANNS") return engine_->searcher(discovery::Method::kAnns);
  if (method == "CTS") return engine_->searcher(discovery::Method::kCts);
  if (method == "MDR") return mdr_.get();
  if (method == "WS") return ws_.get();
  if (method == "TCS") return tcs_.get();
  if (method == "AdH") return adh_.get();
  if (method == "TML") return tml_.get();
  return nullptr;
}

Harness::Harness(HarnessConfig config)
    : config_(config),
      workload_(datagen::Workload::Generate([&] {
        datagen::WorkloadOptions options =
            config.edp_flavor ? datagen::EdpWorkload(config.ld_tables)
                              : datagen::WikiTablesWorkload(config.ld_tables);
        options.queries.per_class = config.queries_per_class;
        return options;
      }())) {}

const datagen::Workload::View& Harness::ViewFor(const Partition& partition) {
  auto it = views_.find(partition.name);
  if (it == views_.end()) {
    it = views_
             .emplace(partition.name,
                      workload_.MakeView(partition.fraction, config_.seed))
             .first;
  }
  return it->second;
}

MethodStack* Harness::StackFor(const Partition& partition) {
  auto it = stacks_.find(partition.name);
  if (it == stacks_.end()) {
    std::fprintf(stderr, "[harness] building %s partition (%zu tables)...\n",
                 partition.name.c_str(),
                 ViewFor(partition).federation.size());
    WallTimer timer;
    auto stack = MethodStack::Build(workload_, ViewFor(partition), config_);
    std::fprintf(stderr, "[harness] %s ready in %.1fs\n",
                 partition.name.c_str(), timer.ElapsedSeconds());
    it = stacks_.emplace(partition.name, std::move(stack)).first;
  }
  return it->second.get();
}

std::vector<datagen::GeneratedQuery> Harness::EvalQueries(
    datagen::QueryClass cls) const {
  size_t train_per_class = static_cast<size_t>(
      config_.train_fraction * static_cast<double>(config_.queries_per_class));
  std::vector<datagen::GeneratedQuery> out;
  size_t seen = 0;
  for (const auto& query : workload_.queries) {
    if (query.cls != cls) continue;
    if (seen++ < train_per_class) continue;
    out.push_back(query);
  }
  return out;
}

std::vector<MethodRun> Harness::RunClass(const Partition& partition,
                                         datagen::QueryClass cls) {
  MethodStack* stack = StackFor(partition);
  const datagen::Workload::View& view = ViewFor(partition);
  std::vector<datagen::GeneratedQuery> queries = EvalQueries(cls);

  // Sub-qrels over the evaluation queries only (positives suffice; unjudged
  // documents count as irrelevant).
  ir::Qrels qrels;
  for (const auto& query : queries) {
    for (table::RelationId t = 0; t < view.federation.size(); ++t) {
      int grade = view.qrels.Grade(query.id, t);
      if (grade > 0) qrels.Add(query.id, t, grade);
    }
  }

  discovery::DiscoveryOptions options;
  options.top_k = config_.eval_depth;

  std::vector<MethodRun> runs;
  for (const std::string& method : MethodStack::MethodNames()) {
    const discovery::Searcher* searcher = stack->Get(method);
    std::unordered_map<ir::QueryId, std::vector<ir::DocId>> run;
    obs::Histogram latency;
    // Warm-up query (cache fills, first-touch effects).
    searcher->Search(queries.front().text, options).MoveValue();
    for (const auto& query : queries) {
      WallTimer timer;
      auto ranking = searcher->Search(query.text, options).MoveValue();
      latency.Record(timer.ElapsedMillis());
      std::vector<ir::DocId> docs;
      docs.reserve(ranking.size());
      for (const auto& hit : ranking) docs.push_back(hit.relation);
      run[query.id] = std::move(docs);
    }
    obs::Histogram::Snapshot snapshot = latency.TakeSnapshot();
    MethodRun result;
    result.method = method;
    result.quality = ir::Evaluate(qrels, run);
    result.mean_query_ms = snapshot.mean();
    result.p50_ms = snapshot.p50();
    result.p90_ms = snapshot.p90();
    result.p99_ms = snapshot.p99();
    recorded_.push_back(
        {partition.name, std::string(datagen::QueryClassToString(cls)), result});
    runs.push_back(std::move(result));
  }
  return runs;
}

Status Harness::WriteJson(const std::string& bench_name,
                          std::optional<datagen::QueryClass> cls) const {
  BenchJsonWriter writer(bench_name);
  writer.SetMeta("ld_tables", static_cast<double>(config_.ld_tables));
  writer.SetMeta("dim", static_cast<double>(config_.encoder_dim));
  writer.SetMeta("queries_per_class",
                 static_cast<double>(config_.queries_per_class));
  writer.SetMeta("eval_depth", static_cast<double>(config_.eval_depth));
  writer.SetMeta("corpus", config_.edp_flavor ? "edp" : "wikitables");
  writer.SetMeta("simd_tier",
                 std::string(vecmath::SimdTierName(vecmath::ActiveSimdTier())));
  for (const RecordedRun& rec : recorded_) {
    if (cls && rec.cls != datagen::QueryClassToString(*cls)) continue;
    writer.AddRow();
    writer.Set("partition", rec.partition);
    writer.Set("class", rec.cls);
    writer.Set("method", rec.run.method);
    writer.Set("map", rec.run.quality.map);
    writer.Set("mrr", rec.run.quality.mrr);
    auto ndcg10 = rec.run.quality.ndcg.find(10);
    if (ndcg10 != rec.run.quality.ndcg.end()) {
      writer.Set("ndcg@10", ndcg10->second);
    }
    writer.Set("mean_query_ms", rec.run.mean_query_ms);
    writer.Set("p50_ms", rec.run.p50_ms);
    writer.Set("p90_ms", rec.run.p90_ms);
    writer.Set("p99_ms", rec.run.p99_ms);
  }
  return writer.Write();
}

void Harness::PrintQualityTable(const std::string& title,
                                datagen::QueryClass cls) {
  std::printf("%s\n", title.c_str());
  std::printf("(corpus: %zu tables LD; dim %zu; %zu eval queries/class)\n\n",
              config_.ld_tables, config_.encoder_dim, EvalQueries(cls).size());
  std::printf("%-8s %-6s %7s %7s %8s %8s %8s %8s\n", "Dataset", "Method",
              "MAP", "MRR", "NDCG@5", "NDCG@10", "NDCG@15", "NDCG@20");
  for (const Partition& partition : Partitions()) {
    std::vector<MethodRun> runs = RunClass(partition, cls);
    std::sort(runs.begin(), runs.end(),
              [](const MethodRun& a, const MethodRun& b) {
                return a.quality.map > b.quality.map;
              });
    for (const MethodRun& run : runs) {
      std::printf("%-8s %-6s %7.3f %7.3f %8.3f %8.3f %8.3f %8.3f\n",
                  partition.name.c_str(), run.method.c_str(), run.quality.map,
                  run.quality.mrr, run.quality.ndcg.at(5),
                  run.quality.ndcg.at(10), run.quality.ndcg.at(15),
                  run.quality.ndcg.at(20));
    }
    std::printf("\n");
  }
}

void Harness::PrintQueryTimeTable() {
  std::printf("Table 4: Query Time (milliseconds) for CTS vs. ANNS\n");
  std::printf("(corpus: %zu tables LD; dim %zu)\n\n", config_.ld_tables,
              config_.encoder_dim);
  std::printf("%-8s %-10s %10s %10s\n", "Dataset", "Query", "CTS", "ANNS");
  struct ClassRow {
    datagen::QueryClass cls;
    const char* label;
  };
  const ClassRow rows[] = {{datagen::QueryClass::kLong, "Long"},
                           {datagen::QueryClass::kModerate, "Moderate"},
                           {datagen::QueryClass::kShort, "Short"}};
  for (const Partition& partition : Partitions()) {
    for (const ClassRow& row : rows) {
      std::vector<MethodRun> runs = RunClass(partition, row.cls);
      double cts = 0, anns = 0;
      for (const MethodRun& run : runs) {
        if (run.method == "CTS") cts = run.mean_query_ms;
        if (run.method == "ANNS") anns = run.mean_query_ms;
      }
      std::printf("%-8s %-10s %10.2f %10.2f\n", partition.name.c_str(),
                  row.label, cts, anns);
    }
  }
  std::printf("\n");
}

void Harness::PrintPerformanceFigure() {
  std::printf("Figure 3: Mean query time (ms) of all methods\n");
  std::printf("(corpus: %zu tables LD; dim %zu)\n\n", config_.ld_tables,
              config_.encoder_dim);
  struct ClassRow {
    datagen::QueryClass cls;
    const char* label;
  };
  const ClassRow rows[] = {{datagen::QueryClass::kLong, "long"},
                           {datagen::QueryClass::kModerate, "moderate"},
                           {datagen::QueryClass::kShort, "short"}};
  std::printf("%-8s %-10s", "Dataset", "Query");
  for (const auto& name : MethodStack::MethodNames()) {
    std::printf(" %9s", name.c_str());
  }
  std::printf("\n");
  for (const Partition& partition : Partitions()) {
    for (const ClassRow& row : rows) {
      std::vector<MethodRun> runs = RunClass(partition, row.cls);
      std::printf("%-8s %-10s", partition.name.c_str(), row.label);
      for (const auto& name : MethodStack::MethodNames()) {
        for (const MethodRun& run : runs) {
          if (run.method == name) std::printf(" %9.2f", run.mean_query_ms);
        }
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
}

Status Harness::WriteChromeTrace(const std::string& bench_name,
                                 const Partition& partition,
                                 datagen::QueryClass cls, size_t max_queries) {
  if (!obs::kObsEnabled) return Status::OK();
  MethodStack* stack = StackFor(partition);
  std::vector<datagen::GeneratedQuery> queries = EvalQueries(cls);
  if (queries.size() > max_queries) queries.resize(max_queries);
  discovery::DiscoveryOptions options;
  options.top_k = config_.eval_depth;

  obs::ChromeTraceWriter writer;
  for (discovery::Method method :
       {discovery::Method::kCts, discovery::Method::kAnns,
        discovery::Method::kExhaustive}) {
    for (const auto& query : queries) {
      auto traced =
          stack->engine().SearchTraced(method, query.text, options).MoveValue();
      obs::TraceAnnotations annotations;
      annotations.method = std::string(discovery::MethodToString(method));
      annotations.degraded = traced.ranking.degraded;
      annotations.partial = traced.ranking.partial;
      writer.AddQuery(traced.trace, annotations);
    }
  }

  const char* dir = std::getenv("MIRA_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/TRACE_" + bench_name + ".json"
                         : "TRACE_" + bench_name + ".json";
  MIRA_RETURN_NOT_OK(writer.WriteFile(path));
  std::fprintf(stderr, "[bench] wrote %s (%zu queries, %zu events)\n",
               path.c_str(), writer.num_queries(), writer.num_events());
  return Status::OK();
}

void Harness::PrintSpanBreakdown(const Partition& partition,
                                 datagen::QueryClass cls) {
  if (!obs::kObsEnabled) {
    std::printf("(span breakdown unavailable: built with MIRA_OBS=OFF)\n\n");
    return;
  }
  MethodStack* stack = StackFor(partition);
  std::vector<datagen::GeneratedQuery> queries = EvalQueries(cls);
  discovery::DiscoveryOptions options;
  options.top_k = config_.eval_depth;

  std::printf("Span breakdown (%s partition, %s queries; mean over %zu runs)\n",
              partition.name.c_str(),
              std::string(datagen::QueryClassToString(cls)).c_str(),
              queries.size());
  const double denom = static_cast<double>(queries.size());
  struct SpanAgg {
    int32_t depth = 0;
    double total_ms = 0.0;
    std::map<std::string, int64_t> counters;  // summed over queries
  };
  for (const char* method_name : {"CTS", "ANNS", "ExS"}) {
    discovery::Method method = std::string(method_name) == "CTS"
                                   ? discovery::Method::kCts
                               : std::string(method_name) == "ANNS"
                                   ? discovery::Method::kAnns
                                   : discovery::Method::kExhaustive;
    std::vector<std::string> order;  // first-occurrence span order
    std::map<std::string, SpanAgg> spans;
    for (const auto& query : queries) {
      auto traced =
          stack->engine().SearchTraced(method, query.text, options).MoveValue();
      for (const obs::SpanRecord& span : traced.trace.spans()) {
        auto [it, inserted] = spans.try_emplace(span.name);
        if (inserted) {
          order.push_back(span.name);
          it->second.depth = span.depth;
        }
        it->second.total_ms += span.duration_ms;
        for (const obs::SpanCounter& counter : span.counters) {
          it->second.counters[counter.key] += counter.value;
        }
      }
    }
    std::printf("  %s\n", method_name);
    for (const std::string& name : order) {
      const SpanAgg& agg = spans.at(name);
      std::printf("    %*s%-28s %9.3f ms", agg.depth * 2, "", name.c_str(),
                  agg.total_ms / denom);
      for (const auto& [key, value] : agg.counters) {
        std::printf("  %s=%.1f", key.c_str(),
                    static_cast<double>(value) / denom);
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
}

const discovery::DiscoveryEngine& Harness::EngineFor(
    const Partition& partition) {
  return StackFor(partition)->engine();
}

namespace {

/// Set by SIGINT/SIGTERM while a --hold loop runs; plain sig_atomic_t is the
/// whole async-signal-safe contract we need.
volatile std::sig_atomic_t g_serve_stop = 0;

void ServeStopHandler(int /*signum*/) { g_serve_stop = 1; }

}  // namespace

ServeOptions ParseServeArgs(int argc, char** argv) {
  ServeOptions out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--debug-server") {
      out.server = true;
    } else if (StartsWith(arg, "--debug-server=")) {
      const long port = std::atol(arg.c_str() + std::strlen("--debug-server="));
      if (port < 0 || port > 65535) {
        std::fprintf(stderr, "%s: port out of range in %s\n", argv[0],
                     arg.c_str());
        out.parse_error = true;
        continue;
      }
      out.server = true;
      out.port = static_cast<uint16_t>(port);
    } else if (arg == "--hold") {
      out.hold = true;
    } else if (StartsWith(arg, "--hold=")) {
      out.hold = true;
      out.hold_seconds = std::atof(arg.c_str() + std::strlen("--hold="));
    } else {
      std::fprintf(stderr,
                   "%s: unknown argument %s\n"
                   "usage: %s [--debug-server[=PORT]] [--hold[=SECONDS]]\n",
                   argv[0], arg.c_str(), argv[0]);
      out.parse_error = true;
    }
  }
  return out;
}

Status ServeAndHold(const ServeOptions& options,
                    const discovery::DiscoveryEngine* engine,
                    const std::function<void()>& drive) {
  return ServeAndHold(options, engine, drive, nullptr);
}

Status ServeAndHold(const ServeOptions& options,
                    const discovery::DiscoveryEngine* engine,
                    const std::function<void()>& drive,
                    const std::function<void(obs::DebugServer&)>& configure) {
  if (!options.server && !options.hold) return Status::OK();

  obs::DebugServer server;
  if (options.server) {
    obs::DebugServerOptions server_options;
    server_options.port = options.port;
    if (engine != nullptr) {
      server.AddCollector([engine] { engine->PublishResourceMetrics(); });
    }
    server.AddStatusSection("SIMD dispatch", [] {
      return "active tier: " +
             std::string(vecmath::SimdTierName(vecmath::ActiveSimdTier()));
    });
    if (configure) configure(server);
    MIRA_RETURN_NOT_OK(server.Start(server_options));
    // The scrape harness (tools/obs_checks.py debugz) parses this line for the
    // resolved port; keep the format stable.
    std::fprintf(stderr, "[bench] debugz listening on http://127.0.0.1:%u/\n",
                 static_cast<unsigned>(server.port()));
  }
  if (!options.hold) {
    if (options.server) {
      std::fprintf(stderr,
                   "[bench] --debug-server without --hold: the process (and "
                   "server) exits now\n");
    }
    return Status::OK();
  }

  // Make the hold workload land on every page: promote any traced query a
  // hair over trivial as a slow trace so /tracez has content to serve.
  if (obs::kObsEnabled && obs::QueryLog::Global().slow_threshold_ms() <= 0.0) {
    obs::QueryLog::Global().SetSlowThresholdMs(0.05);
  }

  g_serve_stop = 0;
  using SignalHandler = void (*)(int);
  SignalHandler previous_int = std::signal(SIGINT, &ServeStopHandler);
  SignalHandler previous_term = std::signal(SIGTERM, &ServeStopHandler);
  const bool bounded = options.hold_seconds > 0.0;
  if (bounded) {
    std::fprintf(stderr, "[bench] holding for %.1fs under query load\n",
                 options.hold_seconds);
  } else {
    std::fprintf(stderr,
                 "[bench] holding under query load until SIGINT/SIGTERM\n");
  }

  WallTimer timer;
  uint64_t iterations = 0;
  while (g_serve_stop == 0) {
    if (bounded && timer.ElapsedMillis() >= options.hold_seconds * 1000.0) {
      break;
    }
    if (drive) {
      drive();
    } else {
      // No workload supplied: stay alive (but note /profilez will capture
      // nothing — ITIMER_PROF needs the process to burn CPU).
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ++iterations;
  }
  std::signal(SIGINT, previous_int);
  std::signal(SIGTERM, previous_term);
  std::fprintf(stderr,
               "[bench] hold finished after %llu workload iteration(s)\n",
               static_cast<unsigned long long>(iterations));
  return Status::OK();
}

}  // namespace mira::bench
