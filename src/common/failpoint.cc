#include "common/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/result.h"
#include "common/string_util.h"
#include "common/sync.h"

namespace mira::failpoint {

namespace {

/// The static site registry — the single source of truth for which
/// injection points exist. Keep in sync with docs/ROBUSTNESS.md and the
/// failpoint matrix in tests/robustness_test.cc.
constexpr const char* kSites[] = {
    "embed.encode",         // CorpusEmbeddings::Build, once per distinct cell
                            // text, before it is pooled
    "index.build",          // AnnsSearcher::Build, before the HNSW build
    "corpus.save",          // CorpusEmbeddings::Save entry
    "corpus.save.partial",  // CorpusEmbeddings::Save payload write cutoff
    "corpus.load",          // CorpusEmbeddings::Load entry
    "service.admit",        // DiscoveryService admission decision (forced
                            // shed: the injected error becomes the rejection
                            // status)
    "service.dispatch",     // DiscoveryService worker dequeue->run (error
                            // fails the request; delay stalls workers to
                            // build deterministic queue pressure)
    "cts.cluster_probe",    // CtsSearcher::Search, after each cluster probe
                            // is grouped (delay drains the budget between
                            // probes)
    "anns.search",          // AnnsSearcher::Search, after the HNSW search and
                            // before grouping (delay drains the budget
                            // between probe and ranking)
};

struct SiteState {
  Action action;
  uint64_t hits = 0;
};

struct Table {
  Mutex mu;
  std::unordered_map<std::string, SiteState> sites MIRA_GUARDED_BY(mu);
  bool env_parsed MIRA_GUARDED_BY(mu) = false;

  Table() {
    for (const char* site : kSites) sites.emplace(site, SiteState{});
  }
};

Table& GetTable() {
  static Table table;
  return table;
}

#if defined(MIRA_FAILPOINTS) && MIRA_FAILPOINTS
constexpr bool kCompiledIn = true;
#else
constexpr bool kCompiledIn = false;
#endif

Result<StatusCode> ParseCode(const std::string& token) {
  if (token == "io") return StatusCode::kIoError;
  if (token == "unavailable") return StatusCode::kUnavailable;
  if (token == "internal") return StatusCode::kInternal;
  if (token == "dataloss") return StatusCode::kDataLoss;
  if (token == "cancelled") return StatusCode::kCancelled;
  if (token == "deadline") return StatusCode::kDeadlineExceeded;
  if (token == "resource_exhausted") return StatusCode::kResourceExhausted;
  return Status::InvalidArgument("failpoint: unknown error code '" + token +
                                 "'");
}

/// Parses "error(io,2)" / "delay(5)" / "partial(64)" / "off".
Result<Action> ParseAction(const std::string& text) {
  if (text == "off") return Action{};
  size_t open = text.find('(');
  if (open == std::string::npos || text.back() != ')') {
    return Status::InvalidArgument("failpoint: malformed action '" + text +
                                   "'");
  }
  std::string name = text.substr(0, open);
  std::string args = text.substr(open + 1, text.size() - open - 2);
  std::string first = args;
  int64_t count = -1;
  if (size_t comma = args.find(','); comma != std::string::npos) {
    first = args.substr(0, comma);
    count = std::atoll(args.c_str() + comma + 1);
    if (count <= 0) {
      return Status::InvalidArgument("failpoint: bad count in '" + text + "'");
    }
  }
  if (name == "error") {
    MIRA_ASSIGN_OR_RETURN(StatusCode code, ParseCode(first));
    return Action::Error(code, count);
  }
  if (name == "delay") {
    return Action::Delay(std::atof(first.c_str()), count);
  }
  if (name == "partial") {
    return Action::Partial(static_cast<size_t>(std::atoll(first.c_str())),
                           count);
  }
  return Status::InvalidArgument("failpoint: unknown action '" + name + "'");
}

/// Applies MIRA_FAILPOINTS from the environment exactly once, the first time
/// any site is evaluated — so CI can arm sites in binaries it does not
/// otherwise control. The winner of the flag race parses outside the lock
/// (ConfigureFromString locks per site); losers proceed immediately, which
/// is fine for the intended single-threaded process startup.
void EnsureEnvParsed(Table& table) {
  {
    MutexLock lock(table.mu);
    if (table.env_parsed) return;
    table.env_parsed = true;
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- getenv races only with
  // setenv/putenv, which this process never calls.
  const char* spec = std::getenv("MIRA_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return;
  Status st = ConfigureFromString(spec);
  if (!st.ok()) {
    MIRA_LOG_ERROR() << "failpoint: ignoring bad MIRA_FAILPOINTS spec: "
                     << st.ToString();
  }
}

/// Consumes one application of the site's armed action. Returns kOff when
/// disarmed.
Action Consume(const char* site) {
  Table& table = GetTable();
  EnsureEnvParsed(table);
  MutexLock lock(table.mu);
  auto it = table.sites.find(site);
  if (it == table.sites.end() || it->second.action.kind == ActionKind::kOff) {
    return Action{};
  }
  SiteState& state = it->second;
  ++state.hits;
  Action applied = state.action;
  if (state.action.count > 0 && --state.action.count == 0) {
    state.action = Action{};
  }
  return applied;
}

}  // namespace

Action Action::Error(StatusCode code, int64_t count) {
  Action a;
  a.kind = ActionKind::kError;
  a.code = code;
  a.count = count;
  return a;
}

Action Action::Delay(double ms, int64_t count) {
  Action a;
  a.kind = ActionKind::kDelay;
  a.delay_ms = ms;
  a.count = count;
  return a;
}

Action Action::Partial(size_t bytes, int64_t count) {
  Action a;
  a.kind = ActionKind::kPartial;
  a.partial_bytes = bytes;
  a.count = count;
  return a;
}

bool Enabled() { return kCompiledIn; }

Status Configure(const std::string& site, const Action& action) {
  if (!kCompiledIn) {
    return Status::FailedPrecondition(
        "failpoint: framework compiled out (build with -DMIRA_FAILPOINTS=ON)");
  }
  Table& table = GetTable();
  MutexLock lock(table.mu);
  auto it = table.sites.find(site);
  if (it == table.sites.end()) {
    return Status::InvalidArgument("failpoint: unknown site '" + site +
                                   "' (see RegisteredSites())");
  }
  it->second.action = action;
  return Status::OK();
}

Status ConfigureFromString(const std::string& spec) {
  for (const std::string& entry : Split(spec, ';')) {
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint: malformed entry '" + entry +
                                     "' (want site=action)");
    }
    MIRA_ASSIGN_OR_RETURN(Action action, ParseAction(entry.substr(eq + 1)));
    MIRA_RETURN_NOT_OK(Configure(entry.substr(0, eq), action));
  }
  return Status::OK();
}

void Clear(const std::string& site) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  auto it = table.sites.find(site);
  if (it != table.sites.end()) it->second.action = Action{};
}

void ClearAll() {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  for (auto& [site, state] : table.sites) {
    state.action = Action{};
    state.hits = 0;
  }
}

std::vector<std::string> RegisteredSites() {
  std::vector<std::string> sites;
  for (const char* site : kSites) sites.emplace_back(site);
  return sites;
}

uint64_t HitCount(const std::string& site) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  auto it = table.sites.find(site);
  return it == table.sites.end() ? 0 : it->second.hits;
}

Status Trigger(const char* site) {
  if (!kCompiledIn) return Status::OK();
  Action action = Consume(site);
  switch (action.kind) {
    case ActionKind::kOff:
    case ActionKind::kPartial:  // partial actions only apply via PartialBytes
      return Status::OK();
    case ActionKind::kError:
      return Status(action.code,
                    StrFormat("failpoint '%s': injected failure", site));
    case ActionKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(action.delay_ms));
      return Status::OK();
  }
  return Status::OK();
}

std::optional<size_t> PartialBytes(const char* site) {
  if (!kCompiledIn) return std::nullopt;
  Action action = Consume(site);
  if (action.kind != ActionKind::kPartial) return std::nullopt;
  return action.partial_bytes;
}

}  // namespace mira::failpoint
