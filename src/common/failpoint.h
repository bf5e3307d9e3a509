#ifndef MIRA_COMMON_FAILPOINT_H_
#define MIRA_COMMON_FAILPOINT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace mira::failpoint {

/// Compile-time-removable fault-injection framework, modeled on the LevelDB
/// and TiKV failpoint idiom: named sites in fallible production paths that a
/// test (or the MIRA_FAILPOINTS environment variable in CI) can arm to
/// return a typed error, inject latency, or simulate a partial write.
///
/// Sites are *registered statically* in failpoint.cc (kSites) so the CI
/// failpoint matrix can enumerate them without executing the code paths
/// first, and so arming a misspelled site fails loudly. Naming scheme:
/// `<layer>.<operation>[.<variant>]`, e.g. "index.build",
/// "corpus.save.partial" — see docs/ROBUSTNESS.md for the registry.
///
/// With the default build (-DMIRA_FAILPOINTS=OFF) the MIRA_FAILPOINT macros
/// expand to nothing: release binaries carry zero overhead and zero
/// injection surface (enforced further by the mira_lint `failpoint` rule,
/// which keeps the macros out of headers and src/vecmath entirely).
///
/// Thread-safety: Configure/Clear/Trigger may race freely (one mutex guards
/// the table; trigger-side cost when compiled in is one mutex acquire, which
/// is why sites live on cold control paths, never in per-cell loops).

/// What an armed site does when execution reaches it.
enum class ActionKind {
  kOff,      ///< Site disarmed (the default for every site).
  kError,    ///< Trigger() returns Status(code, ...).
  kDelay,    ///< Trigger() sleeps delay_ms, then returns OK.
  kPartial,  ///< PartialBytes() returns partial_bytes (write-truncation).
};

struct Action {
  ActionKind kind = ActionKind::kOff;
  /// kError: the status code to return.
  StatusCode code = StatusCode::kInternal;
  /// kDelay: injected latency in milliseconds.
  double delay_ms = 0.0;
  /// kPartial: bytes the writer is allowed to emit before cutting off.
  size_t partial_bytes = 0;
  /// Remaining applications; < 0 means unlimited. A count of N arms the
  /// site for its next N hits and then disarms it — this is how retry tests
  /// model "transient" faults (fail twice, then succeed).
  int64_t count = -1;

  static Action Error(StatusCode code, int64_t count = -1);
  static Action Delay(double ms, int64_t count = -1);
  static Action Partial(size_t bytes, int64_t count = -1);
};

/// True when the framework is compiled in (-DMIRA_FAILPOINTS=ON). All other
/// entry points fail or return empty when it is not.
bool Enabled();

/// Arms `site` with `action`. Unknown sites are an InvalidArgument (the
/// registry is static); a compiled-out build returns FailedPrecondition.
[[nodiscard]] Status Configure(const std::string& site, const Action& action);

/// Parses and applies a spec of the form accepted by the MIRA_FAILPOINTS
/// environment variable:
///
///   site=action[;site=action]...
///   action := error(<code>[,count]) | delay(<ms>[,count])
///           | partial(<bytes>[,count]) | off
///   code   := io | unavailable | internal | dataloss | cancelled | deadline
///
/// e.g. MIRA_FAILPOINTS='corpus.load=error(io,2);anns.search=delay(5)'.
[[nodiscard]] Status ConfigureFromString(const std::string& spec);

/// Disarms one site / every site. Clearing is always safe (no-op when
/// compiled out or already off).
void Clear(const std::string& site);
void ClearAll();

/// Every registered site name, in registry order (for the CI matrix).
std::vector<std::string> RegisteredSites();

/// Times `site` fired while armed (diagnostic; reset by ClearAll).
uint64_t HitCount(const std::string& site);

/// Implementation hooks behind the macros — do not call directly in
/// production code (the macros compile out; direct calls would not).
[[nodiscard]] Status Trigger(const char* site);
std::optional<size_t> PartialBytes(const char* site);

}  // namespace mira::failpoint

#if defined(MIRA_FAILPOINTS) && MIRA_FAILPOINTS
/// Injection site for error/latency actions: returns the injected Status
/// from the enclosing function (works in Status- and Result-returning
/// functions alike). Place only in .cc files on cold control paths.
#define MIRA_FAILPOINT(site)                                \
  do {                                                      \
    ::mira::Status _mira_fp = ::mira::failpoint::Trigger(site); \
    if (!_mira_fp.ok()) return _mira_fp;                    \
  } while (false)

/// Injection site for partial-write simulation: when armed, lowers
/// `limit_var` (a size_t byte budget) to the configured cutoff.
#define MIRA_FAILPOINT_PARTIAL(site, limit_var)                    \
  do {                                                             \
    auto _mira_fp_limit = ::mira::failpoint::PartialBytes(site);   \
    if (_mira_fp_limit.has_value() && *_mira_fp_limit < (limit_var)) \
      (limit_var) = *_mira_fp_limit;                               \
  } while (false)
#else
#define MIRA_FAILPOINT(site) \
  do {                       \
  } while (false)
#define MIRA_FAILPOINT_PARTIAL(site, limit_var) \
  do {                                          \
  } while (false)
#endif  // MIRA_FAILPOINTS

#endif  // MIRA_COMMON_FAILPOINT_H_
