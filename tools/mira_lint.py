#!/usr/bin/env python3
"""MIRA project-invariant linter — checks clang-tidy can't express.

Rules (see docs/STATIC_ANALYSIS.md for rationale and triage policy):

  endl          no std::endl in first-party code (src/, bench/, examples/):
                it forces a flush on every use; use '\\n'.
  guard         every header under src/ uses include guards named
                MIRA_<PATH>_H_ (e.g. src/index/hnsw_index.h ->
                MIRA_INDEX_HNSW_INDEX_H_), with matching #define and a
                commented #endif.
  naked-new     no naked new/delete outside src/common. `new` is allowed when
                ownership is taken on the same statement by unique_ptr/
                shared_ptr construction or .reset(...) — the private-ctor
                factory idiom make_unique cannot serve.
  nodiscard     function declarations in src/ headers returning Status or
                Result<T> by value carry [[nodiscard]], and the class-level
                [[nodiscard]] markers on Status/Result stay in place.
  bare-nolint   clang-tidy suppressions must name a check and justify it:
                `// NOLINT(check) -- reason`; bare `// NOLINT` is rejected.
  intrinsics    raw SIMD intrinsic headers (<immintrin.h>, <arm_neon.h>, ...)
                are confined to src/vecmath/ — everything else goes through
                the dispatched kernels in vecmath/simd.h, so portability and
                the scalar fallback stay in one place.
  obs-in-kernels no observability in src/vecmath/ (no "obs/..." includes, no
                TraceSpan/MetricRegistry/QueryLog use): the SIMD
                kernels are the innermost hot loops, and even a no-op span
                constructor or a relaxed atomic bump is measurable there.
                Instrument the callers (index/discovery layers) instead.
                One layer further out, the control-plane obs headers
                (obs/debug_server.h, obs/cpu_profiler.h, obs/slo.h) are
                additionally banned from the index hot path (src/index/):
                search code publishes metrics/spans, it never hosts the
                debugz server, the profiler, or the SLO evaluator — those
                are wired at the binary level (bench/harness.cc,
                src/service/monitor.cc).
  failpoint     MIRA_FAILPOINT macros live only in .cc files outside
                src/vecmath/ (src/common/failpoint.h, which defines them, is
                exempt). Headers would leak injection sites into every
                includer, and the vecmath kernels are too hot for even a
                compiled-out macro site (see docs/ROBUSTNESS.md).
  raw-sync      no raw standard lock primitives (std::mutex, lock_guard,
                condition_variable, <mutex>/<shared_mutex>/
                <condition_variable> includes, ...) in src/ outside
                src/common/sync.h: first-party code locks through the
                capability-annotated mira::Mutex/SharedMutex/CondVar wrappers
                so Clang -Wthread-safety sees every acquisition.
  guarded-member a mira::Mutex/SharedMutex member declared in a src/ header
                must be referenced by at least one thread-safety annotation
                (MIRA_GUARDED_BY/MIRA_REQUIRES/MIRA_ACQUIRE/...) in the same
                file — a mutex that guards nothing the analysis can see is
                either dead or hiding unannotated shared state.
  ci-test-names every `|`-alternative of a ctest `-R '...'` regex in
                .github/workflows/ci.yml must match at least one test: a
                gtest `Suite.Name` in tests/*.cc or an add_test NAME in
                tests/CMakeLists.txt. A deleted or renamed test otherwise
                drops out of a scoped CI run (the TSan job) silently.

A finding can be suppressed with a justified marker on the same line or the
line above: `// mira-lint-allow(rule-name) -- reason`. Bare markers (no rule
name or no reason) are themselves findings.

Usage: tools/mira_lint.py [paths...]   (defaults to the whole tree)
Exit:  0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FINDINGS: list[str] = []


ALLOW_RE = re.compile(r"//\s*mira-lint-allow\(([a-z-]+)\)\s*--\s*\S")
ALLOW_MALFORMED_RE = re.compile(r"//\s*mira-lint-allow\b")

# Populated per file before the checks run: lineno -> set of allowed rules.
ALLOWED: dict[int, set[str]] = {}


def collect_allows(path: Path, lines: list[str]) -> None:
    """Builds the suppression map; malformed markers are findings."""
    ALLOWED.clear()
    for i, raw in enumerate(lines, 1):
        m = ALLOW_RE.search(raw)
        if m:
            # The marker covers its own line and the next (annotation-above
            # style), like NOLINTNEXTLINE.
            ALLOWED.setdefault(i, set()).add(m.group(1))
            ALLOWED.setdefault(i + 1, set()).add(m.group(1))
        elif ALLOW_MALFORMED_RE.search(raw):
            report(path, i, "bare-nolint",
                   "mira-lint-allow must name a rule and a reason: "
                   "// mira-lint-allow(rule) -- reason")


def report(path: Path, lineno: int, rule: str, msg: str) -> None:
    if rule in ALLOWED.get(lineno, ()):
        return
    FINDINGS.append(f"{path.as_posix()}:{lineno}: [{rule}] {msg}")


def strip_comments_and_strings(line: str) -> str:
    """Crude single-line scrub so rules don't fire inside comments/strings."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    line = re.sub(r"//.*$", "", line)
    return line


def tracked_files(args: list[str]) -> list[Path]:
    out = subprocess.run(
        ["git", "ls-files", "--", *args] if args else ["git", "ls-files"],
        cwd=REPO, capture_output=True, text=True, check=True).stdout
    return [REPO / p for p in out.splitlines() if p]


def check_endl(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not rel.startswith(("src/", "bench/", "examples/")):
        return
    for i, raw in enumerate(lines, 1):
        if "std::endl" in strip_comments_and_strings(raw):
            report(path, i, "endl", "std::endl flushes; use '\\n'")


def expected_guard(path: Path) -> str:
    rel = path.relative_to(REPO).as_posix()
    stem = rel[len("src/"):]
    return "MIRA_" + re.sub(r"[/.]", "_", stem).upper() + "_"


def check_guard(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not (rel.startswith("src/") and rel.endswith(".h")):
        return
    guard = expected_guard(path)
    text = "".join(lines)
    if f"#ifndef {guard}" not in text:
        report(path, 1, "guard", f"missing '#ifndef {guard}'")
        return
    if f"#define {guard}" not in text:
        report(path, 1, "guard", f"missing '#define {guard}'")
    if f"#endif  // {guard}" not in text:
        report(path, len(lines), "guard",
               f"closing line must be '#endif  // {guard}'")


NEW_RE = re.compile(r"\bnew\b")  # includes placement `new (ptr) T`
OWNED_NEW_RE = re.compile(
    r"(unique_ptr\s*<[^;]*>\s*\w*\s*\(\s*new\b"   # unique_ptr<T> p(new T...)
    r"|shared_ptr\s*<[^;]*>\s*\w*\s*\(\s*new\b"
    r"|\.reset\s*\(\s*new\b)")
DELETE_RE = re.compile(r"\bdelete\s*(\[\s*\])?\s+\w")


def check_naked_new(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not rel.startswith(("src/", "bench/", "examples/")):
        return
    if rel.startswith("src/common/"):
        return  # common may build owning primitives
    for i, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if re.search(r"=\s*delete\b", line):
            continue
        # The owning construct may sit on the previous line
        # (`unique_ptr<T> p(\n    new T(...))`), so test the joined pair.
        prev = strip_comments_and_strings(lines[i - 2]) if i >= 2 else ""
        joined = prev.rstrip("\n") + " " + line
        if NEW_RE.search(line) and not OWNED_NEW_RE.search(joined):
            report(path, i, "naked-new",
                   "naked new: take ownership on the same statement "
                   "(make_unique, unique_ptr<T> p(new T...), or .reset(new ...))")
        if DELETE_RE.search(line):
            report(path, i, "naked-new", "naked delete: use owning types")


DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?(?:Status|Result<[^;=]*>)\s+"
    r"[A-Za-z_][A-Za-z0-9_]*\s*\(")


def check_nodiscard(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not (rel.startswith("src/") and rel.endswith(".h")):
        return
    if rel == "src/common/status.h":
        if not any("class [[nodiscard]] Status" in ln for ln in lines):
            report(path, 1, "nodiscard",
                   "Status must stay 'class [[nodiscard]] Status'")
        return
    if rel == "src/common/result.h":
        if not any("class [[nodiscard]] Result" in ln for ln in lines):
            report(path, 1, "nodiscard",
                   "Result must stay 'class [[nodiscard]] Result'")
        return
    for i, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if DECL_RE.match(line) and "[[nodiscard]]" not in raw:
            prev = lines[i - 2] if i >= 2 else ""
            if "[[nodiscard]]" not in prev:
                report(path, i, "nodiscard",
                       "Status/Result-returning declaration needs [[nodiscard]]")


BARE_NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?\b(?!\()")


def check_bare_nolint(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not rel.startswith(("src/", "tests/", "bench/", "examples/")):
        return
    for i, raw in enumerate(lines, 1):
        if BARE_NOLINT_RE.search(raw):
            report(path, i, "bare-nolint",
                   "suppressions must name the check: // NOLINT(check-name)")


INTRINSIC_HEADER_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|xmmintrin|emmintrin|smmintrin"
    r"|tmmintrin|nmmintrin|pmmintrin|wmmintrin|avxintrin|avx2intrin"
    r"|arm_neon|arm_sve)\.h>")


def check_intrinsics(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not rel.startswith(("src/", "tests/", "bench/", "examples/")):
        return
    if rel.startswith("src/vecmath/"):
        return  # the dispatch layer is the one home for raw intrinsics
    for i, raw in enumerate(lines, 1):
        if INTRINSIC_HEADER_RE.search(strip_comments_and_strings(raw)):
            report(path, i, "intrinsics",
                   "raw SIMD intrinsic headers are confined to src/vecmath/; "
                   "use the dispatched kernels in vecmath/simd.h")


OBS_USE_RE = re.compile(
    r"\bTraceSpan\b|\bScopedTrace\b|\bMetricRegistry\b"
    r"|\bQueryLog\b")
# Include directives keep their quoted path (strip_comments_and_strings blanks
# string literals, which would hide them); only trailing comments are dropped.
OBS_INCLUDE_RE = re.compile(r"#\s*include\s*\"obs/")
OBS_CONTROL_PLANE_INCLUDE_RE = re.compile(
    r"#\s*include\s*\"obs/(?:debug_server|cpu_profiler|slo)\.h\"")
# The index hot path: allowed to publish metrics/spans, but never to pull in
# the control-plane surfaces (the debugz server, the SIGPROF profiler).
HOT_PATH_PREFIXES = ("src/index/",)


def check_obs_in_kernels(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    in_kernels = rel.startswith("src/vecmath/")
    in_hot_path = rel.startswith(HOT_PATH_PREFIXES)
    if not in_kernels and not in_hot_path:
        return
    for i, raw in enumerate(lines, 1):
        no_comment = re.sub(r"//.*$", "", raw)
        if in_kernels and (OBS_USE_RE.search(strip_comments_and_strings(raw))
                           or OBS_INCLUDE_RE.search(no_comment)):
            report(path, i, "obs-in-kernels",
                   "no spans/metrics inside src/vecmath/ — instrument the "
                   "calling layer (see docs/OBSERVABILITY.md)")
        elif OBS_CONTROL_PLANE_INCLUDE_RE.search(no_comment):
            report(path, i, "obs-in-kernels",
                   "obs/debug_server.h, obs/cpu_profiler.h, and obs/slo.h "
                   "are control-plane surfaces; index hot paths must not "
                   "include them — wire them at the binary level "
                   "(bench/harness.cc, src/service/monitor.cc)")


FAILPOINT_USE_RE = re.compile(r"\bMIRA_FAILPOINT(_PARTIAL)?\b")


def check_failpoint(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not rel.startswith("src/"):
        return
    if rel == "src/common/failpoint.h":
        return  # the macro definitions themselves
    in_header = rel.endswith(".h")
    in_vecmath = rel.startswith("src/vecmath/")
    if not (in_header or in_vecmath):
        return
    for i, raw in enumerate(lines, 1):
        if FAILPOINT_USE_RE.search(strip_comments_and_strings(raw)):
            where = ("src/vecmath/ is kernel-only"
                     if in_vecmath else "headers leak sites into includers")
            report(path, i, "failpoint",
                   f"MIRA_FAILPOINT sites belong in non-vecmath .cc files "
                   f"({where}; see docs/ROBUSTNESS.md)")


RAW_SYNC_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")
RAW_SYNC_TYPE_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|recursive_timed_mutex|shared_timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|shared_lock"
    r"|scoped_lock)\b")


def check_raw_sync(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not rel.startswith("src/"):
        return
    if rel == "src/common/sync.h":
        return  # the wrappers themselves sit on the std primitives
    for i, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if RAW_SYNC_INCLUDE_RE.search(line) or RAW_SYNC_TYPE_RE.search(line):
            report(path, i, "raw-sync",
                   "raw std lock primitives are confined to src/common/sync.h;"
                   " use mira::Mutex/SharedMutex/CondVar + MutexLock/"
                   "ReaderLock/WriterLock so -Wthread-safety sees the lock")


MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:mira::)?(?:Mutex|SharedMutex)\s+(\w+)\s*;")


def check_guarded_member(path: Path, lines: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    if not (rel.startswith("src/") and rel.endswith(".h")):
        return
    if rel == "src/common/sync.h":
        return
    text = "".join(strip_comments_and_strings(ln) for ln in lines)
    annotation_args = " ".join(
        re.findall(r"MIRA_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED"
                   r"|ACQUIRE|ACQUIRE_SHARED|RELEASE|RELEASE_SHARED|EXCLUDES"
                   r"|ASSERT_CAPABILITY|ASSERT_SHARED_CAPABILITY"
                   r"|RETURN_CAPABILITY|ACQUIRED_BEFORE|ACQUIRED_AFTER)"
                   r"\s*\(([^)]*)\)", text))
    for i, raw in enumerate(lines, 1):
        m = MUTEX_MEMBER_RE.match(strip_comments_and_strings(raw))
        if not m:
            continue
        name = m.group(1)
        if not re.search(rf"\b{re.escape(name)}\b", annotation_args):
            report(path, i, "guarded-member",
                   f"mutex member '{name}' is never referenced by a "
                   "thread-safety annotation in this file — annotate the "
                   "state it guards (MIRA_GUARDED_BY) or the functions that "
                   "need it (MIRA_REQUIRES), or justify with "
                   "mira-lint-allow(guarded-member)")


CI_YML = ".github/workflows/ci.yml"
GTEST_RE = re.compile(r"\b(?:TYPED_)?TEST(?:_[FP])?\(\s*(\w+)\s*,\s*(\w+)\s*\)")
ADD_TEST_RE = re.compile(r"add_test\(\s*NAME\s+(\S+)")


def check_ci_test_names() -> None:
    ALLOWED.clear()
    names = [f"{m[0]}.{m[1]}" for cc in sorted((REPO / "tests").glob("*.cc"))
             for m in GTEST_RE.findall(cc.read_text(encoding="utf-8"))]
    names += ADD_TEST_RE.findall(
        (REPO / "tests/CMakeLists.txt").read_text(encoding="utf-8"))
    for i, line in enumerate(
            (REPO / CI_YML).read_text(encoding="utf-8").splitlines(), 1):
        for regex in re.findall(r"-R\s+'([^']*)'", line):
            if regex.startswith("(") and regex.endswith(")"):
                regex = regex[1:-1]
            for alt in regex.split("|"):
                if not any(re.search(alt, name) for name in names):
                    report(REPO / CI_YML, i, "ci-test-names",
                           f"ctest -R alternative '{alt}' matches no test")


CHECKS = [check_endl, check_guard, check_naked_new, check_nodiscard,
          check_bare_nolint, check_intrinsics, check_obs_in_kernels,
          check_failpoint, check_raw_sync, check_guarded_member]


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    try:
        files = tracked_files(argv)
    except subprocess.CalledProcessError as e:
        print(f"mira_lint: git ls-files failed: {e}", file=sys.stderr)
        return 2
    scanned = 0
    for path in files:
        if path.suffix not in (".h", ".cc"):
            continue
        try:
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        except (OSError, UnicodeDecodeError) as e:
            print(f"mira_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        scanned += 1
        collect_allows(path, lines)
        for check in CHECKS:
            check(path, lines)
    if REPO / CI_YML in files:
        check_ci_test_names()
    if FINDINGS:
        print("\n".join(sorted(FINDINGS)))
        print(f"mira_lint: {len(FINDINGS)} finding(s) in {scanned} files",
              file=sys.stderr)
        return 1
    print(f"mira_lint: clean ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
