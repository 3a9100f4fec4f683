"""gslint rule catalogue.

Every rule returns Finding objects; a finding on a line whose comment (same
line or the line directly above) contains `gslint: allow(<rule-id>)` is
suppressed — suppressions must carry a reason and are themselves reviewed in
docs/STATIC_ANALYSIS.md.

Rules (ids are stable; CI prints them verbatim):

  banned-rng          randomness primitives outside src/common/rng — every
                      stochastic draw must flow through gs::Rng /
                      derive_stream so realisations are pure functions of
                      (seed, label, index).
  unordered-iteration iteration over std::unordered_* containers in the
                      determinism-critical namespaces (hw, runtime,
                      compress, linalg): hash-map iteration order is
                      implementation-defined, so any result folded from it
                      is not bitwise reproducible.
  raw-thread          std::thread construction outside gs::ThreadPool and
                      the serving tier's allowlisted dispatchers: ad-hoc
                      threads bypass GS_NUM_THREADS and the pool's
                      deterministic dispatch contract.
  parallel-stl        std::execution policies / std::reduce: parallel STL
                      reductions have unspecified operand order, which
                      breaks bitwise float reproducibility.
  missing-contract    public src/hw, src/runtime and src/obs headers must
                      carry the mandatory `Thread-safety:` and
                      `Determinism:` contract lines (the prose the Clang
                      annotations and this linter machine-check).
  metric-name         metric registrations (registry.counter/gauge/
                      histogram) whose name literal violates the repo
                      convention gs_[a-z0-9_]+ — the Registry throws on
                      these at runtime; the linter catches them statically.
                      gslint.py additionally runs project-wide passes on
                      full-tree runs: every family name must be registered
                      at exactly one call site, and the catalogue in
                      docs/OBSERVABILITY.md must list exactly the
                      registered families (rule id metric-catalogue).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from lexer import LexedFile


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


#: Top-level src/ directories whose results must be bitwise reproducible.
DETERMINISM_CRITICAL_DIRS = ("hw", "runtime", "compress", "linalg", "obs")

#: Files allowed to own randomness primitives: the seeded-stream facade.
RNG_ALLOWED = ("common/rng.hpp", "common/rng.cpp")

#: Files allowed to construct std::thread: the pool itself plus the serving
#: engine's dispatcher/maintenance threads (which are lifecycle threads that
#: block on work, not compute threads — compute always runs on the pool).
THREAD_ALLOWED = (
    "common/thread_pool.hpp",
    "common/thread_pool.cpp",
    "runtime/shard.hpp",
    "runtime/shard.cpp",
)

#: Directories whose public headers must carry contract lines. "bench" is
#: the shared bench library's public headers (bench_util, trace_replay) —
#: the .cpp drivers are not linted (client threads there are deliberate).
CONTRACT_DIRS = ("hw", "runtime", "obs", "bench")

_ALLOW = re.compile(r"gslint:\s*allow\(([a-z-]+)\)")

_RNG_BANNED = re.compile(
    r"\b(random_device|rand|srand|mt19937(?:_64)?|minstd_rand0?|"
    r"default_random_engine|ranlux(?:24|48)(?:_base)?|knuth_b)\b"
)
_TIME_SEED = re.compile(r"\btime\s*\(")

_UNORDERED_DECL = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;{}]*?>[&\s]+(\w+)\s*[;,={()]"
)
_RANGE_FOR = re.compile(r"\bfor\s*\([^;()]*?:\s*(\w+)\s*\)")
_ITER_CALL = re.compile(r"\b(\w+)\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(")

_STD_THREAD = re.compile(r"\bstd\s*::\s*thread\b")
_PARALLEL_STL = re.compile(r"\bstd\s*::\s*(execution\b|reduce\s*\()")

#: A metric registration in the BLANKED code: `.counter(""` / `->gauge(""` —
#: the lexer collapses the name literal to "", so matching here can never
#: fire on prose in comments; the actual name is read from raw_lines.
_METRIC_CALL = re.compile(
    r"[.>]\s*(counter|gauge|histogram)\s*\(\s*\"\"", re.S)
_METRIC_NAME = re.compile(r"^gs_[a-z0-9_]+$")
_STRING_LITERAL = re.compile(r'"([^"\\]*)"')


def _suppressed(lexed: LexedFile, line: int, rule: str) -> bool:
    for probe in (line, line - 1):
        text = lexed.comments.get(probe, "")
        for match in _ALLOW.finditer(text):
            if match.group(1) == rule:
                return True
    return False


def _finding(lexed: LexedFile, rel: str, line: int, rule: str,
             message: str) -> list[Finding]:
    if _suppressed(lexed, line, rule):
        return []
    return [Finding(path=rel, line=line, rule=rule, message=message)]


def _in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    return any(rel.startswith(d + "/") for d in dirs)


def check_banned_rng(lexed: LexedFile, rel: str) -> list[Finding]:
    if rel in RNG_ALLOWED:
        return []
    findings: list[Finding] = []
    for lineno, code in enumerate(lexed.code_lines, start=1):
        for match in _RNG_BANNED.finditer(code):
            findings += _finding(
                lexed, rel, lineno, "banned-rng",
                f"'{match.group(1)}' outside common/rng — draw through "
                "gs::Rng / derive_stream so the realisation is keyed by "
                "(seed, label, index)")
        for _ in _TIME_SEED.finditer(code):
            findings += _finding(
                lexed, rel, lineno, "banned-rng",
                "'time(' — wall-clock seeding is nondeterministic; thread a "
                "seed from the caller instead")
    return findings


def check_unordered_iteration(lexed: LexedFile, rel: str) -> list[Finding]:
    if not _in_dirs(rel, DETERMINISM_CRITICAL_DIRS):
        return []
    findings: list[Finding] = []
    tracked: set[str] = set()
    for lineno, code in enumerate(lexed.code_lines, start=1):
        for match in _UNORDERED_DECL.finditer(code):
            tracked.add(match.group(1))
        for match in _RANGE_FOR.finditer(code):
            if match.group(1) in tracked:
                findings += _finding(
                    lexed, rel, lineno, "unordered-iteration",
                    f"range-for over unordered container '{match.group(1)}' "
                    "in a determinism-critical namespace — hash iteration "
                    "order is not reproducible; use a sorted/indexed "
                    "container or sort the keys first")
        iter_names = {m.group(1) for m in _ITER_CALL.finditer(code)
                      if m.group(1) in tracked}
        for name in sorted(iter_names):
            findings += _finding(
                lexed, rel, lineno, "unordered-iteration",
                f"iterator over unordered container '{name}' in a "
                "determinism-critical namespace — hash iteration order is "
                "not reproducible")
    return findings


def check_raw_thread(lexed: LexedFile, rel: str) -> list[Finding]:
    if rel in THREAD_ALLOWED:
        return []
    findings: list[Finding] = []
    for lineno, code in enumerate(lexed.code_lines, start=1):
        for _ in _STD_THREAD.finditer(code):
            findings += _finding(
                lexed, rel, lineno, "raw-thread",
                "std::thread outside gs::ThreadPool and the serving-tier "
                "allowlist — ad-hoc threads bypass GS_NUM_THREADS and the "
                "deterministic dispatch contract")
    return findings


def check_parallel_stl(lexed: LexedFile, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    for lineno, code in enumerate(lexed.code_lines, start=1):
        for match in _PARALLEL_STL.finditer(code):
            what = "std::execution" if match.group(1).startswith(
                "execution") else "std::reduce"
            findings += _finding(
                lexed, rel, lineno, "parallel-stl",
                f"{what} — parallel STL reduction order is unspecified, "
                "which breaks bitwise float reproducibility; use "
                "gs::ThreadPool::parallel_for with per-index disjoint "
                "outputs and a fixed fold order")
    return findings


def check_missing_contract(lexed: LexedFile, rel: str) -> list[Finding]:
    if not (rel.endswith(".hpp") and _in_dirs(rel, CONTRACT_DIRS)):
        return []
    text = lexed.comment_text
    findings: list[Finding] = []
    for token in ("Thread-safety:", "Determinism:"):
        if token not in text:
            findings += _finding(
                lexed, rel, 1, "missing-contract",
                f"public header lacks the mandatory '{token}' contract line "
                "(see docs/STATIC_ANALYSIS.md)")
    return findings


def metric_registrations(lexed: LexedFile) -> list[tuple[int, str, str]]:
    """(line, method, name) for every registry.counter/gauge/histogram call.

    Call sites are located in the blanked code (so comments can't fake
    them); the name is the first string literal on the raw line holding the
    blanked `""` argument — registrations keep the name on the call's first
    literal line, which the exactly-once project check enforces anyway.
    """
    code_text = "\n".join(lexed.code_lines)
    found: list[tuple[int, str, str]] = []
    for match in _METRIC_CALL.finditer(code_text):
        lineno = code_text.count("\n", 0, match.end()) + 1
        raw = lexed.raw_lines[lineno - 1] if lineno <= len(
            lexed.raw_lines) else ""
        name_match = _STRING_LITERAL.search(raw)
        name = name_match.group(1) if name_match else ""
        found.append((lineno, match.group(1), name))
    return found


def check_metric_name(lexed: LexedFile, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    for lineno, method, name in metric_registrations(lexed):
        if not _METRIC_NAME.match(name):
            findings += _finding(
                lexed, rel, lineno, "metric-name",
                f"{method} registration '{name}' violates the metric naming "
                "convention gs_[a-z0-9_]+ (lowercase, gs_ prefix)")
    return findings


ALL_RULES = (
    check_banned_rng,
    check_unordered_iteration,
    check_raw_thread,
    check_parallel_stl,
    check_missing_contract,
    check_metric_name,
)


def check_file(lexed: LexedFile, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    for rule in ALL_RULES:
        findings += rule(lexed, rel)
    return findings
