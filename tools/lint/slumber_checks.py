#!/usr/bin/env python3
"""slumber-lint custom checks: the repo's determinism & concurrency rules.

Stock clang-tidy cannot express the invariants this reproduction's
science rests on (bitwise-identical trial output at every lane count),
so this checker enforces them directly:

  slumber-d1  No nondeterminism sources in src/: std::rand/srand,
              std::random_device, std::chrono::*::now (timing belongs
              in bench/), time(nullptr)-style seeding, and
              thread::hardware_concurrency outside the documented
              default_trial_threads precedence chain
              (src/util/thread_pool.cc is the single allowed site).
              src/obs/ is the one scope allowed to read the wall
              clock: the telemetry layer is out-of-band by contract
              (timestamps flow to sinks only, never back into a
              schedule or decided output). Outside src/obs/, src/ code
              must also never *read* telemetry back (obs::peak_rss_kb,
              obs::proc::*): a measurement feeding a decision would
              make trial output machine-dependent.
              src/fault/ additionally bans sequential RNG state (Rng
              construction, Rng::split, engine node_rng streams): every
              fault decision must be a pure keyed draw
              (util::keyed_uniform or util::stream_rng), which is what
              makes the fault layer engine- and
              lane-count-independent.
  slumber-d2  No iteration over std::unordered_map/set/multimap/multiset
              anywhere findings-bearing code lives (src/, bench/,
              examples/, tools/): iteration order is implementation-
              defined. Lookup-only use (find/emplace/insert/count) is
              deterministic and allowed; ordered drains must go through
              sorted containers or sort-before-iterate.
  slumber-d3  Atomic reductions must be commutative-and-associative
              integer ops: fetch_add/fetch_sub on floating-point
              atomics is flagged (FP addition is not associative, so
              the merged value depends on lane interleaving), and any
              compare_exchange loop needs an explicit justification
              (the documented tri-state Unknown->True/False pattern in
              src/bulk/sleeping_mis.cc uses plain relaxed load/store,
              not CAS).
  slumber-d4  memory_order stricter than relaxed requires an adjacent
              justification comment (same line or the three lines
              above), and mutable writes to by-reference captures
              inside pool lambdas (parallel_for_range /
              parallel_for_index bodies) must be chunk-indexed,
              subscripted, or member/pointer state -- a bare scalar
              `++x` / `x += ...` across lanes is a data race and an
              order-dependent reduction even when atomic.

Suppression: clang-tidy style, with a mandatory reason string --
    // NOLINT(slumber-d2): drained into a sorted vector first
    // NOLINTNEXTLINE(slumber-d1): wall-clock only feeds the progress log
A NOLINT without a reason is itself a finding (slumber-nolint).

The analysis is lexical (comment/string-aware tokenization, brace
matching for lambda bodies) and dependency-free: it runs in minimal
containers and CI images without a clang toolchain. When the libclang
python bindings are importable they are used to refine function-extent
detection, but they are optional by design -- `pip install libclang` is
never required.

Usage:
    tools/lint/slumber_checks.py [--root REPO] [paths...]   # scan tree
    tools/lint/slumber_checks.py --self-test                # fixtures

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

try:  # optional refinement only; the lexical engine is the contract
    import clang.cindex  # type: ignore  # noqa: F401
    HAVE_LIBCLANG = True
except ImportError:
    HAVE_LIBCLANG = False

RULES = ("slumber-d1", "slumber-d2", "slumber-d3", "slumber-d4",
         "slumber-nolint")

# Directories scanned in tree mode, relative to the repo root. tests/
# are deliberately excluded: they keep hash-container reference
# implementations as behavioral oracles for the rewrites this lint
# mandates (see tests/determinism_container_test.cc).
TREE_SCAN_DIRS = ("src", "bench", "examples", "tools")
CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

# slumber-d1 only applies under src/ (bench timing code is exempt), and
# these (path, token) pairs are the documented exceptions.
D1_SCOPE_PREFIX = "src/"
D1_ALLOWLIST = {
    # The single hardware_concurrency call the default_trial_threads
    # precedence chain (--threads > SLUMBER_THREADS > hardware) ends in.
    ("src/util/thread_pool.cc", "hardware_concurrency"),
}


@dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """A C++ file split into an analyzable code view plus comment text.

    `code[i]` is line i with comments and string/char literal contents
    blanked (structure preserved so column math stays sane), and
    `comments[i]` is the comment text that appeared on line i.
    """

    path: str
    code: list[str] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)


def strip_to_views(path: str, text: str) -> SourceFile:
    """Comment/string-aware split of a C++ source into code + comments."""
    src = SourceFile(path=path)
    code: list[str] = []
    comments: list[str] = []
    cur_code: list[str] = []
    cur_comment: list[str] = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                cur_code.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                cur_code.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^(\s\\")]{0,16})\(', text[i:])
                if m:
                    raw_delim = m.group(1)
                    state = "raw"
                    cur_code.append(" " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c == '"':
                state = "string"
                cur_code.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(c)
            i += 1
            continue
        if state == "line_comment":
            cur_comment.append(c)
            cur_code.append(" ")
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                cur_code.append("  ")
                i += 2
                continue
            cur_comment.append(c)
            cur_code.append(" ")
            i += 1
            continue
        if state == "string":
            if c == "\\":
                cur_code.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                cur_code.append('"')
                i += 1
                continue
            cur_code.append(" ")
            i += 1
            continue
        if state == "char":
            if c == "\\":
                cur_code.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(" ")
            i += 1
            continue
        if state == "raw":
            end = ')' + raw_delim + '"'
            if text.startswith(end, i):
                state = "code"
                cur_code.append(" " * len(end))
                i += len(end)
                continue
            cur_code.append(" ")
            i += 1
            continue
    if cur_code or cur_comment:
        code.append("".join(cur_code))
        comments.append("".join(cur_comment))
    src.code = code
    src.comments = comments
    return src


NOLINT_RE = re.compile(
    r"NOLINT(?P<next>NEXTLINE)?\((?P<rules>[^)]*)\)(?P<rest>.*)", re.DOTALL)


def nolint_suppressions(src: SourceFile) -> tuple[dict[int, set[str]],
                                                  list[Finding]]:
    """Maps 0-based line -> set of suppressed rule names.

    NOLINT suppresses on its own line, NOLINTNEXTLINE on the following
    line. A marker without a reason string is a slumber-nolint finding.
    """
    suppressed: dict[int, set[str]] = {}
    findings: list[Finding] = []
    for idx, comment in enumerate(src.comments):
        m = NOLINT_RE.search(comment)
        if not m:
            continue
        rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
        slumber_rules = {r for r in rules if r.startswith("slumber-")}
        if not slumber_rules:
            continue  # plain clang-tidy NOLINT; not ours to police
        rest = re.sub(r"MUST-FLAG\(slumber-[\w-]+\)", "", m.group("rest"))
        reason = rest.lstrip(": \t").strip()
        if len(reason) < 8:
            findings.append(Finding(
                src.path, idx + 1, "slumber-nolint",
                "NOLINT(slumber-*) requires a reason string: "
                "`// NOLINT(slumber-dN): why this is sound`"))
        target = idx + 1 if m.group("next") else idx
        suppressed.setdefault(target, set()).update(slumber_rules)
    return suppressed, findings


def is_suppressed(suppressed: dict[int, set[str]], line_idx: int,
                  rule: str) -> bool:
    rules = suppressed.get(line_idx, set())
    return rule in rules or "slumber-all" in rules


# --------------------------------------------------------------------------
# slumber-d1: nondeterminism sources
# --------------------------------------------------------------------------

D1_PATTERNS = (
    (re.compile(r"\bstd::rand\b|(?<![\w:])rand\s*\("), "std::rand"),
    (re.compile(r"\bsrand\s*\(|\bstd::srand\b"), "srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*"
                r"::\s*now\s*\("), "std::chrono::*::now"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time(nullptr) seeding"),
    (re.compile(r"\bhardware_concurrency\b"), "hardware_concurrency"),
)

# src/obs/ exemption: the telemetry layer is the repo's one sanctioned
# wall-clock consumer. Its out-of-band contract (timestamps reach the
# JSONL/trace sinks and the stderr heartbeat only — never an RNG, a
# schedule, or a decided output) is what the obs on/off bitwise-identity
# tests pin, so clock reads there cannot perturb the science.
D1_OBS_SCOPE_PREFIX = "src/obs/"
D1_OBS_ALLOWED_NAMES = {"std::chrono::*::now"}

# The readback half of that contract: src/ code outside src/obs/ must
# never consume a telemetry value. These are write-only APIs from the
# library's point of view; reading one back would let a measured
# quantity (RSS, wall time) steer computation.
D1_OBS_READBACK_PATTERNS = (
    (re.compile(r"\bobs::(?:peak_rss_kb\s*\(|proc::)"),
     "telemetry readback"),
)

D1_OBS_READBACK_EXPLANATION = (
    "telemetry values are write-only outside src/obs/: a measured "
    "quantity steering src/ computation would make trial output "
    "machine-dependent (bench/ and tools/ may read them)")

# src/fault/ extension: the fault layer's contract is that every
# probabilistic decision is a pure function of (seed, entity) via
# util::keyed_uniform (or util::stream_rng). Sequential generator state — a constructed Rng, a
# state-derived split, or a protocol's per-node engine stream — makes a
# draw depend on consumption order, which breaks the bitwise agreement
# between the coroutine and bulk back ends and across lane counts.
D1_FAULT_SCOPE_PREFIX = "src/fault/"
D1_FAULT_PATTERNS = (
    (re.compile(r"\bRng\s+\w+\s*[({=]|\bRng\s*\("), "sequential Rng"),
    (re.compile(r"\.\s*split\s*\("), "Rng::split"),
    (re.compile(r"\bnode_rng\s*\("), "engine node stream"),
)

D1_FAULT_EXPLANATIONS = {
    "sequential Rng": "fault draws must be pure keyed util::keyed_uniform "
                      "calls; a constructed generator's output depends on "
                      "consumption order, breaking engine- and "
                      "lane-independence",
    "Rng::split": "state-derived child streams depend on how much of the "
                  "parent was consumed; key a util::keyed_uniform draw "
                  "by the faulted entity instead",
    "engine node stream": "per-node engine streams belong to the "
                          "protocols; fault decisions consuming them would "
                          "perturb the fault-free trajectory",
}

D1_EXPLANATIONS = {
    "std::rand": "non-reproducible RNG; use util::Rng / util::stream_rng "
                 "seeded from the trial schedule",
    "srand": "global RNG seeding is hidden state; use util::Rng / "
             "util::stream_rng",
    "std::random_device": "non-reproducible entropy source; seeds must come "
                          "from the trial schedule",
    "std::chrono::*::now": "wall-clock reads are nondeterministic; timing "
                           "belongs in bench/, not src/",
    "time(nullptr) seeding": "time-derived values are nondeterministic; "
                             "seeds must come from the trial schedule",
    "hardware_concurrency": "machine-dependent value; route through the "
                            "default_trial_threads precedence chain "
                            "(--threads > SLUMBER_THREADS > hardware)",
}


def check_d1(src: SourceFile, suppressed: dict[int, set[str]],
             scope_path: str) -> list[Finding]:
    if not scope_path.startswith(D1_SCOPE_PREFIX):
        return []
    in_obs_scope = scope_path.startswith(D1_OBS_SCOPE_PREFIX)
    findings = []
    for idx, line in enumerate(src.code):
        for pattern, name in D1_PATTERNS:
            if not pattern.search(line):
                continue
            if (scope_path, name) in D1_ALLOWLIST:
                continue
            if in_obs_scope and name in D1_OBS_ALLOWED_NAMES:
                continue
            if is_suppressed(suppressed, idx, "slumber-d1"):
                continue
            findings.append(Finding(
                src.path, idx + 1, "slumber-d1",
                f"{name}: {D1_EXPLANATIONS[name]}"))
        if not in_obs_scope:
            for pattern, name in D1_OBS_READBACK_PATTERNS:
                if not pattern.search(line):
                    continue
                if is_suppressed(suppressed, idx, "slumber-d1"):
                    continue
                findings.append(Finding(
                    src.path, idx + 1, "slumber-d1",
                    f"{name}: {D1_OBS_READBACK_EXPLANATION}"))
    if scope_path.startswith(D1_FAULT_SCOPE_PREFIX):
        for idx, line in enumerate(src.code):
            for pattern, name in D1_FAULT_PATTERNS:
                if not pattern.search(line):
                    continue
                if is_suppressed(suppressed, idx, "slumber-d1"):
                    continue
                findings.append(Finding(
                    src.path, idx + 1, "slumber-d1",
                    f"{name}: {D1_FAULT_EXPLANATIONS[name]}"))
    return findings


# --------------------------------------------------------------------------
# slumber-d2: iteration over unordered containers
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*"
    r"[&]?\s*(?P<name>\w+)\s*[;({=,)]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(?P<range>[\w.>-]+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(?P<name>\w+)\s*\.\s*c?r?begin\s*\(")


def check_d2(src: SourceFile,
             suppressed: dict[int, set[str]]) -> list[Finding]:
    unordered_vars: set[str] = set()
    for line in src.code:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_vars.add(m.group("name"))
    if not unordered_vars:
        return []
    findings = []
    for idx, line in enumerate(src.code):
        hits: list[str] = []
        for m in RANGE_FOR_RE.finditer(line):
            expr = m.group("range").split(".")[0].split("->")[0]
            if expr in unordered_vars:
                hits.append(f"range-for over unordered container '{expr}'")
        for m in BEGIN_CALL_RE.finditer(line):
            if m.group("name") in unordered_vars:
                hits.append(
                    f"iterator walk over unordered container "
                    f"'{m.group('name')}'")
        for hit in hits:
            if is_suppressed(suppressed, idx, "slumber-d2"):
                continue
            findings.append(Finding(
                src.path, idx + 1, "slumber-d2",
                f"{hit}: iteration order is implementation-defined; use a "
                f"sorted container or drain into a sorted vector first"))
    return findings


# --------------------------------------------------------------------------
# slumber-d3: non-commutative / non-associative atomic reductions
# --------------------------------------------------------------------------

FP_ATOMIC_DECL_RE = re.compile(
    r"\bstd::atomic(?:_ref)?\s*<\s*(?:float|double|long\s+double)\s*>\s*"
    r"(?:\w+\s*)?")
FP_ATOMIC_VAR_RE = re.compile(
    r"\bstd::atomic\s*<\s*(?:float|double|long\s+double)\s*>\s+(?P<name>\w+)")
FETCH_RE = re.compile(r"\b(?P<name>\w+)\s*\.\s*fetch_(?:add|sub)\s*\(")
INLINE_FP_FETCH_RE = re.compile(
    r"\batomic(?:_ref)?\s*<\s*(?:float|double|long\s+double)\s*>\s*"
    r"\([^)]*\)\s*\.\s*fetch_(?:add|sub)\s*\(")
CAS_RE = re.compile(r"\bcompare_exchange_(?:weak|strong)\b")


def check_d3(src: SourceFile,
             suppressed: dict[int, set[str]]) -> list[Finding]:
    fp_atomic_vars: set[str] = set()
    for line in src.code:
        for m in FP_ATOMIC_VAR_RE.finditer(line):
            fp_atomic_vars.add(m.group("name"))
    findings = []
    for idx, line in enumerate(src.code):
        flagged_fp = bool(INLINE_FP_FETCH_RE.search(line))
        if not flagged_fp:
            for m in FETCH_RE.finditer(line):
                if m.group("name") in fp_atomic_vars:
                    flagged_fp = True
                    break
        if flagged_fp and not is_suppressed(suppressed, idx, "slumber-d3"):
            findings.append(Finding(
                src.path, idx + 1, "slumber-d3",
                "fetch_add/fetch_sub on a floating-point atomic: FP "
                "addition is not associative, so the merged value depends "
                "on lane interleaving; reduce into per-chunk partials and "
                "merge in chunk order instead"))
        if CAS_RE.search(line) and \
                not is_suppressed(suppressed, idx, "slumber-d3"):
            findings.append(Finding(
                src.path, idx + 1, "slumber-d3",
                "compare_exchange loop: CAS retry order is scheduling-"
                "dependent; the engine's documented lock-free pattern is "
                "one-directional relaxed load/store (tri-state "
                "Unknown->True/False, src/bulk/sleeping_mis.cc). Justify "
                "with NOLINT(slumber-d3): <reason> if genuinely needed"))
    return findings


# --------------------------------------------------------------------------
# slumber-d4: memory_order escalation + pool-lambda capture writes
# --------------------------------------------------------------------------

STRICT_ORDER_RE = re.compile(
    r"\bmemory_order(?:_|::\s*)(?:seq_cst|acquire|release|acq_rel|consume)\b")
MUST_FLAG_ANNOTATION_RE = re.compile(r"MUST-FLAG\(slumber-[\w-]+\)")
POOL_CALL_RE = re.compile(r"\bparallel_for_(?:range|index)\s*\(")
# A statement that declares a local: optionally cv-qualified type-ish
# tokens followed by the name then an initializer/terminator. Kept
# deliberately broad -- it only widens the set of identifiers treated
# as locals (fewer findings), never narrows it.
LOCAL_DECL_TEMPLATE = (
    r"(?:\b(?:auto|const|constexpr|unsigned|signed|bool|char|short|int|"
    r"long|float|double|std::\w+(?:::\w+)*|[A-Z]\w*(?:::\w+)*)\b"
    r"[\w:<>,\s*&\[\]]*?[\s*&])"
    r"{name}\s*[=;({{\[]")
WRITE_RE = re.compile(
    r"(?:\+\+|--)\s*(?P<pre>\w+)\b"
    r"|\b(?P<post>\w+)\s*(?:\+\+|--)"
    r"|\b(?P<assign>\w+)\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)")


def lambda_bodies_after_pool_calls(
        src: SourceFile) -> list[tuple[int, str, int]]:
    """Yields (capture, params, body_text, body_start_line) for lambdas
    passed to parallel_for_range / parallel_for_index."""
    text = "\n".join(src.code)
    line_starts = [0]
    for line in src.code:
        line_starts.append(line_starts[-1] + len(line) + 1)

    def line_of(pos: int) -> int:
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo

    for call in POOL_CALL_RE.finditer(text):
        # Find the lambda introducer within the call's argument list.
        lb = text.find("[", call.end())
        if lb < 0 or lb - call.end() > 200:
            continue
        rb = text.find("]", lb)
        if rb < 0:
            continue
        capture = text[lb:rb + 1]
        pos = rb + 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
        params = ""
        if pos < len(text) and text[pos] == "(":
            depth = 0
            start = pos
            while pos < len(text):
                if text[pos] == "(":
                    depth += 1
                elif text[pos] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                pos += 1
            params = text[start + 1:pos]
            pos += 1
        while pos < len(text) and text[pos] != "{":
            if text[pos] == ";" or text[pos] == ")":
                break
            pos += 1
        if pos >= len(text) or text[pos] != "{":
            continue
        depth = 0
        start = pos
        while pos < len(text):
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
                if depth == 0:
                    break
            pos += 1
        body = text[start + 1:pos]
        yield capture, params, body, line_of(start)


CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "break", "continue", "else",
    "do", "case", "default", "sizeof", "static_cast", "const_cast",
    "reinterpret_cast", "dynamic_cast", "throw", "new", "delete", "this",
    "true", "false", "nullptr", "auto", "const", "constexpr",
}


def check_d4(src: SourceFile,
             suppressed: dict[int, set[str]]) -> list[Finding]:
    findings = []
    # D4a: strict memory orders need an adjacent justification comment.
    for idx, line in enumerate(src.code):
        if not STRICT_ORDER_RE.search(line):
            continue
        if is_suppressed(suppressed, idx, "slumber-d4"):
            continue
        window = range(max(0, idx - 3), idx + 1)
        # Fixture MUST-FLAG annotations are lint-test metadata, not
        # justification prose; they never satisfy the rule.
        has_comment = any(
            src.comments[j].strip() and
            not MUST_FLAG_ANNOTATION_RE.fullmatch(src.comments[j].strip())
            for j in window if j < len(src.comments))
        if not has_comment:
            findings.append(Finding(
                src.path, idx + 1, "slumber-d4",
                "memory_order stricter than relaxed without an adjacent "
                "justification comment (same line or the 3 lines above): "
                "say what this ordering synchronizes and why relaxed is "
                "insufficient"))
    # D4b: bare scalar writes to by-reference captures in pool lambdas.
    for capture, params, body, body_line in \
            lambda_bodies_after_pool_calls(src):
        if "&" not in capture and "=" not in capture:
            continue  # capture-less or explicit-empty: nothing shared
        param_names = set(re.findall(r"(\w+)\s*(?:,|$)", params))
        locals_: set[str] = set(param_names)
        # Identifiers declared inside the body (including nested-lambda
        # parameters and structured bindings) count as locals.
        for m in re.finditer(r"\[([^\]]*)\]\s*\(([^)]*)\)", body):
            locals_.update(re.findall(r"(\w+)\s*(?:,|$)", m.group(2)))
        for m in re.finditer(r"auto\s*\[\s*([\w\s,]+)\]", body):
            locals_.update(w.strip() for w in m.group(1).split(","))
        candidate_writes = []
        for m in WRITE_RE.finditer(body):
            name = m.group("pre") or m.group("post") or m.group("assign")
            if not name or name in CONTROL_KEYWORDS:
                continue
            wstart = m.start()
            prefix = body[:wstart].rstrip()
            # Subscripted / member / pointer targets are fine: the repo
            # discipline is per-chunk partial arrays indexed by the
            # chunk parameter, or explicitly atomic state.
            tail = body[m.start():m.end() + 40]
            target_end = tail.find(name) + len(name)
            after = tail[target_end:target_end + 2]
            if after.startswith("[") or after.startswith(".") or \
                    after.startswith("->") or after.startswith("("):
                continue
            if prefix.endswith((".", "->", "*", "]", ")")):
                continue
            decl_re = re.compile(LOCAL_DECL_TEMPLATE.format(name=re.escape(
                name)))
            if decl_re.search(body):
                locals_.add(name)
            if name in locals_:
                continue
            candidate_writes.append((name, m.start()))
        for name, offset in candidate_writes:
            line_idx = body_line + body[:offset].count("\n")
            if is_suppressed(suppressed, line_idx, "slumber-d4"):
                continue
            findings.append(Finding(
                src.path, line_idx + 1, "slumber-d4",
                f"write to by-reference capture '{name}' inside a pool "
                f"lambda: every lane mutates it concurrently and the "
                f"merge order is scheduling-dependent; index a per-chunk "
                f"partial (partials[chunk]) and merge after the barrier, "
                f"or make it atomic with a justified ordering"))
    return findings


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def analyze_file(abspath: str, relpath: str) -> list[Finding]:
    try:
        with open(abspath, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as err:
        return [Finding(relpath, 1, "slumber-nolint",
                        f"cannot read file: {err}")]
    src = strip_to_views(relpath, text)
    suppressed, findings = nolint_suppressions(src)
    findings += check_d1(src, suppressed, relpath)
    findings += check_d2(src, suppressed)
    findings += check_d3(src, suppressed)
    findings += check_d4(src, suppressed)
    return findings


def iter_tree_files(root: str) -> Iterator[tuple[str, str]]:
    for scan_dir in TREE_SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith("fixtures")
                and d not in ("__pycache__", ".cache"))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    abspath = os.path.join(dirpath, name)
                    yield abspath, os.path.relpath(abspath, root)


MUST_FLAG_RE = re.compile(r"MUST-FLAG\((?P<rule>slumber-[\w-]+)\)")


def run_self_test(fixtures_dir: str) -> int:
    """Fixture suite: every MUST-FLAG(rule) annotation must produce a
    finding with that rule on that line; no other findings are allowed.
    Files without annotations (the must-pass fixtures) must be clean."""
    if not os.path.isdir(fixtures_dir):
        print(f"error: fixtures dir not found: {fixtures_dir}",
              file=sys.stderr)
        return 2
    failures = []
    checked = 0
    flagged_expectations = 0
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(CXX_EXTENSIONS):
            continue
        abspath = os.path.join(fixtures_dir, name)
        checked += 1
        with open(abspath, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        expected: set[tuple[int, str]] = set()
        for idx, line in enumerate(lines):
            for m in MUST_FLAG_RE.finditer(line):
                expected.add((idx + 1, m.group("rule")))
        flagged_expectations += len(expected)
        # Fixtures exercise every rule regardless of directory scope:
        # analyze them as if they lived under src/; d1_fault_* fixtures
        # target the src/fault/-scoped extension, d1_obs_* the
        # src/obs/-scoped wall-clock exemption, and are analyzed there.
        if name.startswith("d1_fault_"):
            scope = f"src/fault/{name}"
        elif name.startswith("d1_obs_"):
            scope = f"src/obs/{name}"
        else:
            scope = f"src/fixtures/{name}"
        actual_findings = analyze_file(abspath, scope)
        actual = {(f.line, f.rule) for f in actual_findings}
        for line_no, rule in sorted(expected - actual):
            failures.append(f"{name}:{line_no}: expected {rule} finding, "
                            f"got none")
        for line_no, rule in sorted(actual - expected):
            msg = next(f.message for f in actual_findings
                       if (f.line, f.rule) == (line_no, rule))
            failures.append(f"{name}:{line_no}: unexpected {rule} finding: "
                            f"{msg}")
    if checked == 0:
        print("error: no fixtures found", file=sys.stderr)
        return 2
    if failures:
        print(f"slumber_checks self-test: FAIL "
              f"({len(failures)} mismatches over {checked} fixtures)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"slumber_checks self-test: OK ({checked} fixtures, "
          f"{flagged_expectations} must-flag expectations, "
          f"engine={'libclang+lex' if HAVE_LIBCLANG else 'lex'})")
    return 0


def emit_gha(findings: list[Finding]) -> None:
    """GitHub Actions problem-matcher annotations, one per finding."""
    for f in findings:
        message = f.message.replace("%", "%25").replace("\n", "%0A")
        print(f"::error file={f.path},line={f.line},"
              f"title={f.rule}::{message}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="slumber-lint determinism & concurrency checks")
    parser.add_argument("paths", nargs="*",
                        help="files to check (default: the tree scan set)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from here)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite instead of a scan")
    parser.add_argument("--gha", action="store_true",
                        help="also emit GitHub Actions ::error "
                             "annotations (auto under GITHUB_ACTIONS)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(here, "..", ".."))

    if args.list_rules:
        print(__doc__)
        return 0
    if args.self_test:
        return run_self_test(os.path.join(here, "fixtures"))

    findings: list[Finding] = []
    if args.paths:
        files = [(os.path.abspath(p), os.path.relpath(os.path.abspath(p),
                                                      root))
                 for p in args.paths]
    else:
        files = list(iter_tree_files(root))
    for abspath, relpath in files:
        findings.extend(analyze_file(abspath, relpath.replace(os.sep, "/")))

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    for f in findings:
        print(f.render())
    if args.gha or os.environ.get("GITHUB_ACTIONS"):
        emit_gha(findings)
    if findings:
        print(f"\nslumber_checks: {len(findings)} finding(s) over "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"slumber_checks: OK ({len(files)} files clean, "
          f"engine={'libclang+lex' if HAVE_LIBCLANG else 'lex'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
