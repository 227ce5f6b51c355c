#!/usr/bin/env python3
"""slumber-lint v2: dataflow checks for races, RNG streams, clocks, obs.

Where slumber_checks.py (D1-D4) is line-local and lexical, this
analyzer resolves definitions and uses across statements and files:

  slumber-d5  Race discipline in pool lambdas. For every lambda handed
              to a sharding dispatcher (parallel_for_range /
              parallel_for_index / for_range / scan_range / scan_awake /
              for_each_block / for_each_range), resolve which names are
              lane-local: the chunk/index parameters, everything
              derived from them (transitively, through initializers and
              range-fors over the handed span), and body locals.
              Derivation stops at an adjacency lookup (`neighbors(`):
              a neighbor of a lane's node belongs to whichever lane
              owns it. A store through a captured reference whose
              target is not lane-local, not atomic, and not
              subscripted by a derived index is a cross-lane race (or
              an order-dependent reduction) and is flagged. This is the def-use successor
              of D4's "bare scalar write" heuristic: D4 cannot tell
              `parts[c] += x` from `parts[0] += x`; D5 can.
  slumber-d6  RNG stream-tag registry. src/util/stream_tags.h declares
              every domain-separation tag; the checker proves the
              registry well-formed (annotation format, kAllStreamTags
              listing, pairwise-distinct high 32 bits) and that every
              keyed draw under src/ -- a util::stream_rng stream or a
              util::keyed_uniform key -- derives from a registered tag
              (directly, or through up to D6_MAX_HOPS local or member
              definitions, the way hoisted per-round fault keys are
              built) or sits on a documented block-counter discipline
              marked SLUMBER-STREAM-DISCIPLINE(block-counter).
  slumber-d7  Clock-width safety. The bulk engine's virtual clock is
              128-bit (VirtualRound); narrowing it to 64 bits anywhere
              except the blessed saturate helpers (saturate_round /
              round_halves in src/bulk/) silently truncates at deep
              recursions (K >= 62 is reached at n = 10M). Flagged:
              static_cast<64-bit int>(clock expression) and implicit
              64-bit-typed declarations initialized from clock
              expressions, outside the blessed helper bodies.
  slumber-d8  Cross-TU obs write-only discipline. D1 bans *direct*
              telemetry readbacks (obs::peak_rss_kb, obs::proc::*)
              outside src/obs/; D8 closes the transitive hole: a
              function-level call graph over every scanned file proves
              no src/ function outside src/obs/ *transitively* reads
              telemetry state through helpers.

Engines:
  --engine ast         libclang (python clang.cindex) over
                       compile_commands.json. The precise engine.
  --engine structural  dependency-free comment/string-aware parsing
                       (shared machinery with slumber_checks.py). Runs
                       in minimal containers; what CTest pins.
  --engine auto        ast when the libclang bindings import, else a
                       skip notice and exit 0 (the lexical checkers in
                       slumber_checks.py remain the floor contract;
                       --require turns the skip into a failure).

Both engines feed one shared rule core through a uniform per-file
model, so a fixture that must flag under one engine must flag under
the other; --self-test verifies that on every engine available.

Results are cached per file in <build>/.slumber-ast-cache keyed by
(engine, analyzer digest, libclang version, registry digest, type-
environment digest, file content); the D8 graph is rebuilt from cached
per-file function tables each run, so cross-file edges never go stale.

Suppression: clang-tidy style with a mandatory reason --
    // NOLINT(slumber-d5): slot uniquely claimed by relaxed fetch_add
A NOLINT without a reason is itself a finding (slumber-nolint, via the
shared slumber_checks machinery).

Usage:
    tools/lint/ast_checks.py [--root R] [--build-dir build]
        [--engine auto|ast|structural] [--require] [--jobs N]
        [--no-cache] [--report out.txt] [--gha] [paths...]
    tools/lint/ast_checks.py --self-test

Exit status: 0 clean (or skipped), 1 findings, 2 usage/internal error.

Known structural-engine limits (by design -- the AST engine closes
them in CI): writes through dereferenced raw pointers (`*p = x`) parse
as declarations and are not flagged; member-qualified clock reads
(`x.round`) resolve by field name, not by object type.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import slumber_checks as sc  # noqa: E402  (shared lexical machinery)

Finding = sc.Finding
SourceFile = sc.SourceFile

try:
    import clang.cindex  # type: ignore
    HAVE_LIBCLANG = True
except ImportError:
    HAVE_LIBCLANG = False

RULES = ("slumber-d5", "slumber-d6", "slumber-d7", "slumber-d8")
CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")
REGISTRY_REL = "src/util/stream_tags.h"

# Dispatcher name -> which lambda parameter positions are lane-local
# index parameters (chunk id / range bounds) and which hand the lambda
# a lane-owned span (iterating it yields lane-local work items).
DISPATCHERS: dict[str, dict[str, tuple[int, ...]]] = {
    "parallel_for_range": {"index": (0, 1, 2)},
    "for_range": {"index": (0, 1, 2)},
    "scan_range": {"index": (1, 2)},
    "parallel_for_index": {"index": (0,)},
    "for_each_block": {"index": (0,)},
    "for_each_range": {"index": (0, 1)},
    "scan_awake": {"span": (1,)},
}
DISPATCH_RE = re.compile(
    r"\b(" + "|".join(sorted(DISPATCHERS, key=len, reverse=True)) +
    r")\s*\(")

CONTROL_KEYWORDS = sc.CONTROL_KEYWORDS | {
    "namespace", "template", "typename", "using", "struct", "class",
    "public", "private", "protected", "operator", "static", "inline",
    "void", "noexcept", "co_return", "co_await", "co_yield", "goto",
    "static_assert", "alignas", "alignof", "decltype", "typeid",
}

INT64_TARGET_RE = (
    r"(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t|std::ptrdiff_t|"
    r"(?:unsigned\s+)?(?:long\s+)?long|unsigned|(?:unsigned\s+)?int")
STATIC_CAST_RE = re.compile(
    r"static_cast\s*<\s*(?:" + INT64_TARGET_RE + r")\s*>\s*\(")
NARROW_DECL_RE = re.compile(
    r"\b((?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t)\s+"
    r"([A-Za-z_]\w*)\s*=\s*([^;]*);")
CLOCK_VAR_RE = re.compile(r"\bVirtualRound\b\s*&?\s*([A-Za-z_]\w*)")
CLOCK_INT128_RE = re.compile(r"\bunsigned\s+__int128\s+([A-Za-z_]\w*)")
CLOCK_FN_RE = re.compile(r"\bVirtualRound\s+([A-Za-z_]\w*)\s*\(")
NONCLOCK_RE = re.compile(
    r"\b(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|ptrdiff_t)\s+"
    r"([A-Za-z_]\w*)")
ATOMIC_RE = re.compile(
    r"\bstd::atomic(?:_ref)?\s*<[^;{}]*>\s*&?\s*([A-Za-z_]\w*)")
BLESSED_HELPERS = ("saturate_round", "round_halves")
BLESSED_DEF_RE = re.compile(
    r"\b(?:" + "|".join(BLESSED_HELPERS) + r")\s*\(")
# Keyed draws and their arity: stream_rng(seed, stream) and
# keyed_uniform(key, entity). See draw_key_text for the arguments that
# must derive from a registered tag.
STREAM_DRAW_ARGS = {"stream_rng": 2, "keyed_uniform": 2}
STREAM_CALL_RE = re.compile(r"\b(stream_rng|keyed_uniform)\s*\(")
# Definitions a keyed draw's key may be traced through: a hoisted
# per-round key is folded from the tag in one place and read by a
# later fold (round key -> entity key -> draw), so one hop is too few.
D6_MAX_HOPS = 4
OBS_READ_RE = re.compile(r"\bobs::(?:peak_rss_kb\s*\(|proc::)")
DISCIPLINE_RE = re.compile(r"SLUMBER-STREAM-DISCIPLINE\(block-counter\)")
TAG_DECL_RE = re.compile(
    r"\binline\s+constexpr\s+std::uint64_t\s+(k\w*Tag)\s*=\s*"
    r"(0[xX][0-9a-fA-F']+)\s*ULL\s*;")
TAG_ANNOTATION_RE = re.compile(r"SLUMBER-STREAM-TAG\(")
FUNC_DEF_RE = re.compile(
    r"(?:^|[;}{])\s*(?:template\s*<[^;{}]*>\s*)?"
    r"((?:[\w:~]+(?:\s*<[^;{}]*>)?[\s&*]+)+)"
    r"([A-Za-z_][\w:]*)\s*\(")
NESTED_LAMBDA_RE = re.compile(r"\[[^\[\]]*\]\s*\(([^()]*)\)")
STRUCTURED_BINDING_RE = re.compile(
    r"\bauto\s*&{0,2}\s*\[([^\[\]]*)\]\s*[=:]")
DECL_RE = re.compile(
    r"(?:(?:const|constexpr|static|volatile|unsigned|signed|long|short)"
    r"\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<[^;{}()=]*>)?)[\s&*]+"
    r"([A-Za-z_]\w*)\s*(=[^;]*|\([^;{}]*\)|\{[^;{}]*\})?\s*[;,)]")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
# An adjacency lookup: the ids it yields are other nodes, owned by
# whichever lane owns them, so no index derives through it.
FOREIGN_RE = re.compile(r"\bneighbors\s*\(")
MUST_FLAG_RE = re.compile(r"MUST-FLAG\((?P<rule>slumber-[\w-]+)\)")

DECL_TYPE_KEYWORDS = {
    "return", "co_return", "delete", "throw", "new", "case", "goto",
    "else", "typedef", "using", "break", "continue", "default",
}


# --------------------------------------------------------------------------
# lexical helpers
# --------------------------------------------------------------------------

def match_forward(text: str, pos: int, open_ch: str, close_ch: str) -> int:
    """Index of the close matching text[pos] == open_ch, or -1."""
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_args(text: str) -> list[str]:
    """Splits an argument list on top-level commas."""
    args: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or args:
        args.append("".join(cur))
    return args


def param_name(param: str) -> Optional[str]:
    """Name of a function parameter, or None when unnamed."""
    param = param.strip()
    if not param or param.endswith("..."):
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", param)
    if not m:
        return None
    before = param[:m.start()].rstrip()
    if not before or before.endswith("::"):
        return None  # a bare (possibly qualified) type: unnamed param
    return m.group(1)


def word_in(text: str, names: set[str]) -> bool:
    return any(m.group(0) in names for m in WORD_RE.finditer(text))


def line_starts_of(text: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def line_of(starts: list[int], pos: int) -> int:
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo


# --------------------------------------------------------------------------
# the uniform per-file model both engines produce
# --------------------------------------------------------------------------

@dataclass
class PoolLambda:
    dispatcher: str
    params: list[Optional[str]]  # positional; None = unnamed
    body: str                    # code view, nested dispatchers masked
    body_line: int               # 0-based line of the opening brace


@dataclass
class StreamCall:
    line: int        # 0-based
    stream_arg: str  # text of the stream (last) argument


@dataclass
class CastSite:
    line: int   # 0-based
    arg: str    # text of the cast operand
    blessed: bool


@dataclass
class NarrowDecl:
    line: int
    name: str
    init: str
    blessed: bool


@dataclass
class FuncDef:
    name: str       # simple (last ::-component) name
    qual: str       # as written at the definition
    line: int       # 0-based
    calls: set[str] = field(default_factory=set)
    reads_obs: bool = False


@dataclass
class FileModel:
    relpath: str
    src: SourceFile
    pool_lambdas: list[PoolLambda] = field(default_factory=list)
    stream_calls: list[StreamCall] = field(default_factory=list)
    casts: list[CastSite] = field(default_factory=list)
    narrow_decls: list[NarrowDecl] = field(default_factory=list)
    funcs: list[FuncDef] = field(default_factory=list)
    clock_names: set[str] = field(default_factory=set)
    clock_fns: set[str] = field(default_factory=set)
    nonclock_names: set[str] = field(default_factory=set)
    atomic_names: set[str] = field(default_factory=set)
    engine: str = "structural"


@dataclass
class TypeEnv:
    """Union of type facts over every scanned file: the bulk engine's
    clock fields (declared in engine.h) must be recognizable when cast
    in engine.cc."""
    clock_names: set[str] = field(default_factory=set)
    clock_fns: set[str] = field(default_factory=set)
    atomic_names: set[str] = field(default_factory=set)

    def digest(self) -> str:
        h = hashlib.sha256()
        for group in (self.clock_names, self.clock_fns,
                      self.atomic_names):
            h.update("\0".join(sorted(group)).encode())
            h.update(b"\x01")
        return h.hexdigest()


# --------------------------------------------------------------------------
# structural engine: model extraction
# --------------------------------------------------------------------------

def extract_type_facts(model: FileModel, text: str) -> None:
    for m in CLOCK_VAR_RE.finditer(text):
        model.clock_names.add(m.group(1))
    for m in CLOCK_INT128_RE.finditer(text):
        model.clock_names.add(m.group(1))
    for m in CLOCK_FN_RE.finditer(text):
        model.clock_fns.add(m.group(1))
        model.clock_names.discard(m.group(1))
    for m in NONCLOCK_RE.finditer(text):
        model.nonclock_names.add(m.group(1))
    for m in ATOMIC_RE.finditer(text):
        model.atomic_names.add(m.group(1))


def find_lambda_after(text: str, call_end: int) -> Optional[
        tuple[str, int, int, int]]:
    """After a dispatcher's open paren, locate its lambda argument.

    Returns (params_text, body_start, body_end, intro_pos) with body
    offsets delimiting the inside of the lambda's braces, or None when
    the argument is not an inline lambda (named callable, or this is a
    declaration/definition of the dispatcher itself).
    """
    i = call_end
    depth = 0
    last_code = "("  # the dispatcher's own open paren
    while i < len(text):
        ch = text[i]
        if ch == "[" and depth == 0 and last_code in "(,":
            break  # a lambda introducer in argument position
        if ch in ";{":
            return None  # signature or forwarding call: no inline lambda
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                return None  # call closed without an inline lambda
            depth -= 1
        if not ch.isspace():
            last_code = ch
        i += 1
    else:
        return None
    intro = i
    rb = text.find("]", intro)
    if rb < 0:
        return None
    pos = rb + 1
    while pos < len(text) and text[pos].isspace():
        pos += 1
    params = ""
    if pos < len(text) and text[pos] == "(":
        close = match_forward(text, pos, "(", ")")
        if close < 0:
            return None
        params = text[pos + 1:close]
        pos = close + 1
    while pos < len(text) and text[pos] not in "{;)":
        pos += 1
    if pos >= len(text) or text[pos] != "{":
        return None
    body_close = match_forward(text, pos, "{", "}")
    if body_close < 0:
        return None
    return params, pos + 1, body_close, intro


def mask_nested_dispatchers(body: str) -> str:
    """Blanks nested dispatcher lambdas: they are analyzed as their own
    PoolLambda with their own index parameters."""
    out = body
    for call in DISPATCH_RE.finditer(body):
        found = find_lambda_after(body, call.end())
        if found is None:
            continue
        _, bstart, bend, _ = found
        out = (out[:bstart] +
               "".join("\n" if c == "\n" else " "
                       for c in out[bstart:bend]) +
               out[bend:])
    return out


def extract_pool_lambdas(model: FileModel, text: str,
                         starts: list[int]) -> None:
    for call in DISPATCH_RE.finditer(text):
        found = find_lambda_after(text, call.end())
        if found is None:
            continue
        params_text, bstart, bend, _ = found
        params = [param_name(p) for p in split_args(params_text)]
        model.pool_lambdas.append(PoolLambda(
            dispatcher=call.group(1),
            params=params,
            body=mask_nested_dispatchers(text[bstart:bend]),
            body_line=line_of(starts, bstart)))


def draw_key_text(name: str, args: list[str]) -> str:
    """The arguments of a keyed draw that carry its key: stream_rng's
    stream (its seed is the run's, shared by every subsystem), or both
    of keyed_uniform's (key, entity) -- a hoisted key may sit in
    either."""
    keyed = args[-1:] if name == "stream_rng" else args
    return ", ".join(a.strip() for a in keyed)


def extract_stream_calls(model: FileModel, text: str,
                         starts: list[int]) -> None:
    for call in STREAM_CALL_RE.finditer(text):
        open_paren = text.find("(", call.start())
        close = match_forward(text, open_paren, "(", ")")
        if close < 0:
            continue
        if text[close + 1:].lstrip().startswith("{"):
            continue  # the draw helper's definition itself, not a draw
        args = split_args(text[open_paren + 1:close])
        if len(args) < STREAM_DRAW_ARGS[call.group(1)]:
            continue  # declaration or partial application: not a draw
        model.stream_calls.append(StreamCall(
            line=line_of(starts, call.start()),
            stream_arg=draw_key_text(call.group(1), args)))


def blessed_extents(text: str) -> list[tuple[int, int]]:
    """Definition extents of the blessed saturate helpers."""
    extents = []
    for m in BLESSED_DEF_RE.finditer(text):
        open_paren = text.find("(", m.start())
        close = match_forward(text, open_paren, "(", ")")
        if close < 0:
            continue
        pos = close + 1
        while pos < len(text) and text[pos] not in "{;":
            pos += 1
        if pos >= len(text) or text[pos] != "{":
            continue  # a call or declaration, not the definition
        end = match_forward(text, pos, "{", "}")
        if end > 0:
            extents.append((m.start(), end))
    return extents


def extract_casts(model: FileModel, text: str, starts: list[int]) -> None:
    in_bulk = model.relpath.startswith("src/bulk/")
    extents = blessed_extents(text) if in_bulk else []

    def is_blessed(pos: int) -> bool:
        return any(a <= pos <= b for a, b in extents)

    for m in STATIC_CAST_RE.finditer(text):
        open_paren = text.rfind("(", m.start(), m.end())
        close = match_forward(text, open_paren, "(", ")")
        if close < 0:
            continue
        model.casts.append(CastSite(
            line=line_of(starts, m.start()),
            arg=text[open_paren + 1:close],
            blessed=is_blessed(m.start())))
    for m in NARROW_DECL_RE.finditer(text):
        model.narrow_decls.append(NarrowDecl(
            line=line_of(starts, m.start()),
            name=m.group(2), init=m.group(3),
            blessed=is_blessed(m.start())))


def extract_funcs(model: FileModel, text: str, starts: list[int]) -> None:
    for m in FUNC_DEF_RE.finditer(text):
        qual = m.group(2)
        simple = qual.rsplit("::", 1)[-1]
        type_tokens = re.findall(r"[\w:~]+", m.group(1))
        if (simple in CONTROL_KEYWORDS or
                any(t in DECL_TYPE_KEYWORDS for t in type_tokens)):
            continue
        open_paren = text.find("(", m.end() - 1)
        close = match_forward(text, open_paren, "(", ")")
        if close < 0:
            continue
        pos = close + 1
        while pos < len(text) and text[pos] not in "{;=":
            pos += 1
        if pos >= len(text) or text[pos] != "{":
            continue  # declaration (or `= default`), not a definition
        end = match_forward(text, pos, "{", "}")
        if end < 0:
            continue
        body = text[pos + 1:end]
        calls = {c.group(1) for c in
                 re.finditer(r"([A-Za-z_][\w:]*)\s*\(", body)}
        model.funcs.append(FuncDef(
            name=simple, qual=qual, line=line_of(starts, m.start(2)),
            calls=calls, reads_obs=bool(OBS_READ_RE.search(body))))


def build_model_structural(src: SourceFile, relpath: str) -> FileModel:
    model = FileModel(relpath=relpath, src=src, engine="structural")
    text = "\n".join(src.code)
    starts = line_starts_of(text)
    extract_type_facts(model, text)
    extract_pool_lambdas(model, text, starts)
    extract_stream_calls(model, text, starts)
    extract_casts(model, text, starts)
    extract_funcs(model, text, starts)
    return model


# --------------------------------------------------------------------------
# AST engine (libclang): same model, cursor-accurate extraction
# --------------------------------------------------------------------------

def libclang_version() -> str:
    if not HAVE_LIBCLANG:
        return "none"
    try:
        return clang.cindex.Config().lib.clang_getClangVersion()  # type: ignore
    except Exception:
        return "libclang-unknown"


def _extent_text(text: str, starts: list[int],
                 extent: Any) -> tuple[str, int]:
    """Source slice for a cursor extent -> (text, start offset)."""
    b = starts[extent.start.line - 1] + extent.start.column - 1
    e = starts[extent.end.line - 1] + extent.end.column - 1
    return text[b:e], b


def build_model_ast(abspath: str, relpath: str, src: SourceFile,
                    compile_args: list[str]) -> FileModel:
    """libclang extraction into the shared FileModel. Falls back to the
    structural model on any parse failure (never silently drops a
    file from the scan)."""
    try:
        index = clang.cindex.Index.create()
        tu = index.parse(abspath, args=compile_args,
                         options=clang.cindex.TranslationUnit
                         .PARSE_DETAILED_PROCESSING_RECORD)
    except Exception:
        return build_model_structural(src, relpath)

    model = FileModel(relpath=relpath, src=src, engine="ast")
    text = "\n".join(src.code)
    starts = line_starts_of(text)
    CK = clang.cindex.CursorKind

    def in_main_file(cursor: Any) -> bool:
        loc = cursor.location
        return loc.file is not None and \
            os.path.samefile(str(loc.file), abspath)

    def walk(cursor: Any, blessed: bool,
             func_stack: list[FuncDef]) -> None:
        kind = cursor.kind
        if kind in (CK.FUNCTION_DECL, CK.CXX_METHOD, CK.CONSTRUCTOR,
                    CK.FUNCTION_TEMPLATE) and cursor.is_definition() \
                and in_main_file(cursor):
            fn = FuncDef(name=cursor.spelling,
                         qual=cursor.spelling,
                         line=cursor.location.line - 1)
            model.funcs.append(fn)
            func_stack = func_stack + [fn]
            blessed = blessed or cursor.spelling in BLESSED_HELPERS
        if kind in (CK.VAR_DECL, CK.PARM_DECL, CK.FIELD_DECL) and \
                in_main_file(cursor):
            spelling = cursor.type.spelling
            if "VirtualRound" in spelling or "__int128" in spelling:
                model.clock_names.add(cursor.spelling)
            elif "atomic" in spelling:
                model.atomic_names.add(cursor.spelling)
            elif re.search(r"\b(?:u?int\d+_t|size_t)\b", spelling):
                model.nonclock_names.add(cursor.spelling)
        if kind == CK.CALL_EXPR and in_main_file(cursor):
            name = cursor.spelling or ""
            for fn in func_stack:
                fn.calls.add(name)
            if name in DISPATCHERS:
                lam = next((c for c in cursor.walk_preorder()
                            if c.kind == CK.LAMBDA_EXPR), None)
                if lam is not None:
                    body = next((c for c in lam.get_children()
                                 if c.kind == CK.COMPOUND_STMT), None)
                    if body is not None:
                        btext, boff = _extent_text(text, starts,
                                                   body.extent)
                        params = [p.spelling or None
                                  for p in lam.get_children()
                                  if p.kind == CK.PARM_DECL]
                        model.pool_lambdas.append(PoolLambda(
                            dispatcher=name, params=params,
                            body=mask_nested_dispatchers(
                                btext.strip("{}")),
                            body_line=body.extent.start.line - 1))
            if name in STREAM_DRAW_ARGS:
                args = [_extent_text(text, starts, a.extent)[0]
                        for a in cursor.get_arguments()]
                if len(args) >= STREAM_DRAW_ARGS[name]:
                    model.stream_calls.append(StreamCall(
                        line=cursor.location.line - 1,
                        stream_arg=draw_key_text(name, args)))
        if kind == CK.CXX_STATIC_CAST_EXPR and in_main_file(cursor):
            target = cursor.type.spelling
            if re.fullmatch(
                    r"(?:const\s+)?(?:std::)?(?:u?int(?:8|16|32|64)_t|"
                    r"size_t|unsigned long|unsigned|long|int|"
                    r"unsigned long long|long long)", target):
                children = list(cursor.get_children())
                if children:
                    atext, _ = _extent_text(text, starts,
                                            children[-1].extent)
                    model.casts.append(CastSite(
                        line=cursor.location.line - 1, arg=atext,
                        blessed=blessed and
                        model.relpath.startswith("src/bulk/")))
        for child in cursor.get_children():
            walk(child, blessed, func_stack)

    try:
        walk(tu.cursor, False, [])
        for fn in model.funcs:
            fn.reads_obs = any(
                c in ("peak_rss_kb",) or c.startswith("proc::") or
                c.startswith("obs::proc::")
                for c in fn.calls) or False
        # Narrow decls keep the structural extraction: an implicit
        # conversion has no dedicated cursor to anchor on.
        stext = "\n".join(src.code)
        sstarts = line_starts_of(stext)
        tmp = FileModel(relpath=relpath, src=src)
        extract_casts(tmp, stext, sstarts)
        model.narrow_decls = tmp.narrow_decls
        # The token-level obs-read scan is more reliable than call
        # spellings for qualified reads.
        structural = build_model_structural(src, relpath)
        by_line = {f.line: f for f in model.funcs}
        for f in structural.funcs:
            if f.reads_obs and f.line in by_line:
                by_line[f.line].reads_obs = True
        if not model.funcs:
            model.funcs = structural.funcs
    except Exception:
        return build_model_structural(src, relpath)
    return model


# --------------------------------------------------------------------------
# slumber-d5: pool-lambda race discipline (shared rule core)
# --------------------------------------------------------------------------

def parse_chain_backward(body: str, end: int) -> tuple[
        Optional[str], list[str], bool]:
    """Postfix chain ending (exclusive) at `end`, walked backward.

    Returns (root, subscripts, is_decl). is_decl is True when the
    target is a bare name immediately preceded by a type token -- a
    declaration, hence a lane-local."""
    subs: list[str] = []
    j = end - 1
    while j >= 0 and body[j].isspace():
        j -= 1
    saw_postfix = False
    while True:
        if j >= 0 and body[j] == "]":
            depth = 0
            k = j
            while k >= 0:
                if body[k] == "]":
                    depth += 1
                elif body[k] == "[":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < 0:
                return None, subs, False
            subs.append(body[k + 1:j])
            saw_postfix = True
            j = k - 1
            while j >= 0 and body[j].isspace():
                j -= 1
            continue
        m = re.search(r"([A-Za-z_]\w*)\s*$", body[:j + 1])
        if not m:
            return None, subs, False
        root = m.group(1)
        j = m.start(1) - 1
        while j >= 0 and body[j].isspace():
            j -= 1
        if j >= 0 and body[j] == ".":
            saw_postfix = True
            j -= 1
            continue
        if j >= 1 and body[j] == ">" and body[j - 1] == "-":
            saw_postfix = True
            j -= 2
            continue
        if j >= 0 and body[j] == ")":
            return None, subs, False  # call-result target: out of scope
        is_decl = (not saw_postfix and j >= 0 and
                   (body[j].isalnum() or body[j] in "_>&*:"))
        return root, subs, is_decl


def parse_chain_forward(body: str, pos: int) -> tuple[
        Optional[str], list[str]]:
    m = re.match(r"[A-Za-z_]\w*", body[pos:])
    if not m:
        return None, []
    root = m.group(0)
    subs: list[str] = []
    j = pos + m.end()
    n = len(body)
    while True:
        while j < n and body[j].isspace():
            j += 1
        if j < n and body[j] == "[":
            k = match_forward(body, j, "[", "]")
            if k < 0:
                break
            subs.append(body[j + 1:k])
            j = k + 1
            continue
        if j < n and (body[j] == "." or body.startswith("->", j)):
            j += 1 if body[j] == "." else 2
            m2 = re.match(r"\s*([A-Za-z_]\w*)", body[j:])
            if not m2:
                break
            j += m2.end()
            continue
        break
    return root, subs


def iter_writes(body: str) -> Iterator[tuple[str, list[str], bool, int]]:
    """Yields (root, subscripts, is_decl, offset) for every store."""
    n = len(body)
    i = 0
    while i < n:
        ch = body[i]
        if ch == "=":
            prev = body[i - 1] if i else ""
            nxt = body[i + 1] if i + 1 < n else ""
            if nxt == "=":
                i += 2
                continue
            if prev in "<>" and i >= 2 and body[i - 2] == prev:
                end = i - 2  # <<= / >>=
            elif prev in "=!<>":
                i += 1
                continue  # comparison
            elif prev in "+-*/%&|^":
                end = i - 1
            else:
                end = i
            root, subs, is_decl = parse_chain_backward(body, end)
            if root:
                yield root, subs, is_decl, i
            i += 1
            continue
        if body.startswith("++", i) or body.startswith("--", i):
            j = i + 2
            while j < n and body[j].isspace():
                j += 1
            if j < n and (body[j].isalpha() or body[j] == "_"):
                root, subs = parse_chain_forward(body, j)
                yield_decl = False
            else:
                root, subs, yield_decl = parse_chain_backward(body, i)
            if root:
                yield root, subs, yield_decl, i
            i += 2
            continue
        i += 1


def top_level_colon(text: str) -> int:
    """Offset of the first top-level single `:` (range-for separator),
    skipping `::` and ternaries; -1 when absent."""
    depth = 0
    saw_question = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        elif ch == "?" and depth == 0:
            saw_question = True
        elif ch == ":" and depth == 0:
            if i + 1 < len(text) and text[i + 1] == ":":
                i += 2
                continue
            if i > 0 and text[i - 1] == ":":
                i += 1
                continue
            if saw_question:
                saw_question = False
            else:
                return i
        i += 1
    return -1


def collect_locals_and_derived(lam: PoolLambda) -> tuple[
        set[str], set[str]]:
    body = lam.body
    spec = DISPATCHERS[lam.dispatcher]
    locals_: set[str] = {p for p in lam.params if p}
    derived: set[str] = set()
    spans: set[str] = set()
    for pos in spec.get("index", ()):
        if pos < len(lam.params) and lam.params[pos]:
            derived.add(lam.params[pos])  # type: ignore[arg-type]
    for pos in spec.get("span", ()):
        if pos < len(lam.params) and lam.params[pos]:
            spans.add(lam.params[pos])  # type: ignore[arg-type]
    locals_ |= spans

    decls: list[tuple[str, str]] = []  # (name, initializer text)
    for m in DECL_RE.finditer(body):
        type_tok = m.group(1).split("<")[0].split("::")[-1]
        if type_tok in DECL_TYPE_KEYWORDS or \
                m.group(1) in DECL_TYPE_KEYWORDS:
            continue
        name = m.group(2)
        locals_.add(name)
        decls.append((name, m.group(3) or ""))
    for m in NESTED_LAMBDA_RE.finditer(body):
        for p in split_args(m.group(1)):
            name = param_name(p)
            if name:
                locals_.add(name)
    for m in STRUCTURED_BINDING_RE.finditer(body):
        for piece in m.group(1).split(","):
            name = piece.strip()
            if name:
                locals_.add(name)
    range_fors: list[tuple[str, str]] = []  # (var, range expr)
    for m in re.finditer(r"\bfor\s*\(", body):
        close = match_forward(body, m.end() - 1, "(", ")")
        if close < 0:
            continue
        header = body[m.end():close]
        colon = top_level_colon(header)
        if colon < 0:
            continue
        var = param_name(header[:colon])
        if var:
            locals_.add(var)
            range_fors.append((var, header[colon + 1:]))

    changed = True
    while changed:
        changed = False
        for name, init in decls:
            if name not in derived and word_in(init, derived) and \
                    not FOREIGN_RE.search(init):
                derived.add(name)
                changed = True
        for var, rng in range_fors:
            if var not in derived and word_in(rng, derived | spans) and \
                    not FOREIGN_RE.search(rng):
                derived.add(var)
                changed = True
    return locals_, derived


def check_d5(model: FileModel, env: TypeEnv,
             suppressed: dict[int, set[str]]) -> list[Finding]:
    if not model.relpath.startswith("src/"):
        return []
    findings = []
    atomics = env.atomic_names | model.atomic_names
    for lam in model.pool_lambdas:
        locals_, derived = collect_locals_and_derived(lam)
        for root, subs, is_decl, offset in iter_writes(lam.body):
            if root in CONTROL_KEYWORDS or is_decl:
                continue
            if root in locals_ or root in atomics:
                continue
            if any(word_in(sub, derived) for sub in subs):
                continue
            line_idx = lam.body_line + lam.body[:offset].count("\n")
            if sc.is_suppressed(suppressed, line_idx, "slumber-d5"):
                continue
            where = (f"'{root}[{subs[-1].strip()}]'" if subs
                     else f"'{root}'")
            findings.append(Finding(
                model.relpath, line_idx + 1, "slumber-d5",
                f"store to captured {where} inside a "
                f"{lam.dispatcher} lambda is not indexed by the "
                f"lane's chunk/index parameter: lanes race on it and "
                f"the merged value depends on scheduling; index a "
                f"per-chunk partial derived from the lambda's "
                f"chunk/index arguments, or make it atomic"))
    return findings


# --------------------------------------------------------------------------
# slumber-d6: stream-tag registry + call-site keying
# --------------------------------------------------------------------------

@dataclass
class Registry:
    tags: dict[str, int] = field(default_factory=dict)  # name -> value
    findings: list[Finding] = field(default_factory=list)


def parse_registry(src: SourceFile, relpath: str,
                   suppressed: dict[int, set[str]],
                   raw: str) -> Registry:
    # Tag values are matched against the RAW text: the code view blanks
    # C++14 digit-separator groups ('5EED') as if they were char
    # literals, which would corrupt every registry constant. The code
    # view still gates each match so commented-out decls don't count.
    reg = Registry()
    text = "\n".join(src.code)
    starts = line_starts_of(raw)
    decl_lines: dict[str, int] = {}
    for m in TAG_DECL_RE.finditer(raw):
        name = m.group(1)
        value = int(m.group(2).replace("'", ""), 16)
        line_idx = line_of(starts, m.start())
        if line_idx >= len(src.code) or name not in src.code[line_idx]:
            continue  # declaration lives inside a comment or string
        reg.tags[name] = value
        decl_lines[name] = line_idx
        window = range(max(0, line_idx - 3), line_idx + 1)
        annotated = any(TAG_ANNOTATION_RE.search(src.comments[j])
                        for j in window if j < len(src.comments))
        if not annotated and not sc.is_suppressed(
                suppressed, line_idx, "slumber-d6"):
            reg.findings.append(Finding(
                relpath, line_idx + 1, "slumber-d6",
                f"stream tag {name} lacks the registry annotation "
                f"`// SLUMBER-STREAM-TAG(<name>): <purpose>` on the "
                f"preceding lines"))
    array = re.search(r"kAllStreamTags\s*\[\s*\]\s*=\s*\{", text)
    if array:
        close = match_forward(text, array.end() - 1, "{", "}")
        listed = set(re.findall(r"k\w*Tag", text[array.end():close])) \
            if close > 0 else set()
        for name, line_idx in decl_lines.items():
            if name not in listed and not sc.is_suppressed(
                    suppressed, line_idx, "slumber-d6"):
                reg.findings.append(Finding(
                    relpath, line_idx + 1, "slumber-d6",
                    f"stream tag {name} is not listed in "
                    f"kAllStreamTags: the pairwise-distinctness proof "
                    f"does not cover it"))
    ordered = sorted(decl_lines.items(), key=lambda kv: kv[1])
    seen_high: dict[int, str] = {}
    for name, line_idx in ordered:
        high = reg.tags[name] >> 32
        if high in seen_high:
            if not sc.is_suppressed(suppressed, line_idx, "slumber-d6"):
                reg.findings.append(Finding(
                    relpath, line_idx + 1, "slumber-d6",
                    f"stream tag {name} collides with "
                    f"{seen_high[high]} in the high 32 bits "
                    f"(0x{high:08x}): their keyed streams are "
                    f"correlated; pick a fresh prefix"))
        else:
            seen_high[high] = name
    return reg


def check_d6_callsites(model: FileModel, registry: Registry,
                       suppressed: dict[int, set[str]]) -> list[Finding]:
    if not model.relpath.startswith("src/"):
        return []
    findings = []
    text = "\n".join(model.src.code)
    tag_names = set(registry.tags)
    for call in model.stream_calls:
        arg = call.stream_arg
        if key_derives_from_tag(arg, text, tag_names):
            continue
        window = range(max(0, call.line - 3), call.line + 1)
        if any(DISCIPLINE_RE.search(model.src.comments[j])
               for j in window if j < len(model.src.comments)):
            continue
        if sc.is_suppressed(suppressed, call.line, "slumber-d6"):
            continue
        findings.append(Finding(
            model.relpath, call.line + 1, "slumber-d6",
            f"keyed draw argument '{arg}' does not key through a "
            f"registered tag (util/stream_tags.h) and is not marked "
            f"`// SLUMBER-STREAM-DISCIPLINE(block-counter): "
            f"<why sound>`: unregistered streams can silently collide "
            f"with another subsystem's draws"))
    return findings


def key_derives_from_tag(arg: str, text: str, tag_names: set[str]) -> bool:
    """True iff `arg` names a registered tag, or one of its identifiers
    has a definition (`ident = ...;` anywhere in the file) that does,
    following definitions up to D6_MAX_HOPS deep."""
    frontier = [arg]
    seen: set[str] = set()
    for _ in range(D6_MAX_HOPS + 1):
        next_frontier = []
        for expr in frontier:
            if word_in(expr, tag_names):
                return True
            for ident in WORD_RE.findall(expr):
                if ident in CONTROL_KEYWORDS or ident in seen:
                    continue
                seen.add(ident)
                next_frontier += [dm.group(1) for dm in re.finditer(
                    rf"\b{re.escape(ident)}\s*=\s*([^;]*);", text)]
        frontier = next_frontier
    return False


# --------------------------------------------------------------------------
# slumber-d7: clock-width safety
# --------------------------------------------------------------------------

def references_clock(expr: str, env: TypeEnv, model: FileModel) -> bool:
    clock = (env.clock_names | model.clock_names) - model.nonclock_names
    fns = env.clock_fns | model.clock_fns
    for m in WORD_RE.finditer(expr):
        name = m.group(0)
        pre = expr[:m.start()].rstrip()
        if pre.endswith("::"):
            continue  # std::round etc.: qualified, different entity
        post = expr[m.end():].lstrip()
        if post.startswith("("):
            if name in fns:
                return True
            continue
        if name in clock:
            return True
    return False


def check_d7(model: FileModel, env: TypeEnv,
             suppressed: dict[int, set[str]]) -> list[Finding]:
    if not model.relpath.startswith("src/"):
        return []
    findings = []
    for cast in model.casts:
        if cast.blessed or not references_clock(cast.arg, env, model):
            continue
        if sc.is_suppressed(suppressed, cast.line, "slumber-d7"):
            continue
        findings.append(Finding(
            model.relpath, cast.line + 1, "slumber-d7",
            f"static_cast narrows a 128-bit virtual-clock value "
            f"('{cast.arg.strip()}') to 64 bits outside the blessed "
            f"saturate helpers: deep recursions overflow 64 bits "
            f"(K >= 62 at n = 10M); call saturate_round() or "
            f"round_halves() (src/bulk/engine.h) instead"))
    for decl in model.narrow_decls:
        if decl.blessed:
            continue
        init = decl.init
        if any(h in init for h in BLESSED_HELPERS):
            continue
        if "static_cast" in init:
            continue  # the cast entry above already judged it
        if not references_clock(init, env, model):
            continue
        if sc.is_suppressed(suppressed, decl.line, "slumber-d7"):
            continue
        findings.append(Finding(
            model.relpath, decl.line + 1, "slumber-d7",
            f"'{decl.name}' implicitly narrows a 128-bit virtual-"
            f"clock value to 64 bits at initialization: use "
            f"VirtualRound, or saturate_round()/round_halves() "
            f"(src/bulk/engine.h) when a 64-bit value is required"))
    return findings


# --------------------------------------------------------------------------
# slumber-d8: transitive obs write-only discipline
# --------------------------------------------------------------------------

def check_d8(models: list[FileModel],
             suppressed_by_path: dict[str, dict[int, set[str]]]
             ) -> list[Finding]:
    scope = [m for m in models
             if m.relpath.startswith("src/") and
             not m.relpath.startswith("src/obs/")]
    tainted: dict[str, list[str]] = {}  # simple name -> chain
    queue: list[str] = []
    for model in scope:
        for fn in model.funcs:
            if fn.reads_obs and fn.name not in tainted:
                tainted[fn.name] = [fn.name, "obs telemetry read"]
                queue.append(fn.name)
    while queue:
        target = queue.pop()
        for model in scope:
            for fn in model.funcs:
                if fn.name in tainted:
                    continue
                simple_calls = {c.rsplit("::", 1)[-1] for c in fn.calls}
                if target in simple_calls:
                    tainted[fn.name] = [fn.name] + tainted[target]
                    queue.append(fn.name)
    findings = []
    for model in scope:
        suppressed = suppressed_by_path.get(model.relpath, {})
        for fn in model.funcs:
            if fn.name not in tainted:
                continue
            if sc.is_suppressed(suppressed, fn.line, "slumber-d8"):
                continue
            chain = " -> ".join(tainted[fn.name])
            findings.append(Finding(
                model.relpath, fn.line + 1, "slumber-d8",
                f"function '{fn.qual}' transitively reads telemetry "
                f"state ({chain}): obs values are write-only outside "
                f"src/obs/ -- a measured quantity steering src/ "
                f"computation would make trial output "
                f"machine-dependent"))
    return findings


# --------------------------------------------------------------------------
# analysis driver: per-file pass + cross-file D8, with caching
# --------------------------------------------------------------------------

def analyzer_digest() -> str:
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("ast_checks.py", "slumber_checks.py"):
        try:
            with open(os.path.join(here, name), "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def file_sha(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            h.update(fh.read())
    except OSError:
        h.update(b"<unreadable>")
    return h.hexdigest()


@dataclass
class FileResult:
    relpath: str
    findings: list[Finding]
    funcs: list[FuncDef]
    d8_suppressed: dict[int, set[str]]


def analyze_one(abspath: str, relpath: str, engine: str,
                env: TypeEnv, registry: Registry,
                compile_args: list[str]) -> FileResult:
    with open(abspath, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    src = sc.strip_to_views(relpath, text)
    suppressed, nolint_findings = sc.nolint_suppressions(src)
    if engine == "ast":
        model = build_model_ast(abspath, relpath, src, compile_args)
    else:
        model = build_model_structural(src, relpath)
    findings = list(nolint_findings)
    if relpath == REGISTRY_REL:
        findings += parse_registry(src, relpath, suppressed, text).findings
    findings += check_d5(model, env, suppressed)
    findings += check_d6_callsites(model, registry, suppressed)
    findings += check_d7(model, env, suppressed)
    return FileResult(relpath, findings, model.funcs, suppressed)


def build_env(files: list[tuple[str, str]]) -> TypeEnv:
    env = TypeEnv()
    for abspath, relpath in files:
        try:
            with open(abspath, "r", encoding="utf-8",
                      errors="replace") as fh:
                text = fh.read()
        except OSError:
            continue
        src = sc.strip_to_views(relpath, text)
        model = FileModel(relpath=relpath, src=src)
        extract_type_facts(model, "\n".join(src.code))
        env.clock_names |= model.clock_names
        env.clock_fns |= model.clock_fns
        env.atomic_names |= model.atomic_names
    env.clock_names -= env.clock_fns
    return env


def iter_tree_files(root: str) -> Iterator[tuple[str, str]]:
    base = os.path.join(root, "src")
    if not os.path.isdir(base):
        return
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith((".", "__")))
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                abspath = os.path.join(dirpath, name)
                yield abspath, os.path.relpath(
                    abspath, root).replace(os.sep, "/")


def load_compile_args(build_dir: str) -> dict[str, list[str]]:
    """abspath -> clang args from compile_commands.json (ast engine)."""
    ccpath = os.path.join(build_dir, "compile_commands.json")
    args_by_file: dict[str, list[str]] = {}
    if not os.path.isfile(ccpath):
        return args_by_file
    try:
        with open(ccpath, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return args_by_file
    for entry in entries:
        abspath = os.path.normpath(
            os.path.join(entry["directory"], entry["file"]))
        raw = entry.get("arguments") or \
            (entry.get("command", "").split())
        args = []
        skip = False
        for tok in raw[1:]:
            if skip:
                skip = False
                continue
            if tok in ("-o", "-c"):
                skip = tok == "-o"
                continue
            if os.path.normpath(os.path.join(
                    entry["directory"], tok)) == abspath:
                continue
            args.append(tok)
        args_by_file[abspath] = args
    return args_by_file


def run_scan(files: list[tuple[str, str]], engine: str, root: str,
             build_dir: str, use_cache: bool) -> tuple[
                 list[Finding], int, int]:
    """Returns (findings, cache hits, analyzed count)."""
    env = build_env(files)
    registry_path = os.path.join(root, REGISTRY_REL)
    if os.path.isfile(registry_path):
        with open(registry_path, "r", encoding="utf-8",
                  errors="replace") as fh:
            reg_raw = fh.read()
        reg_src = sc.strip_to_views(REGISTRY_REL, reg_raw)
        reg_suppressed, _ = sc.nolint_suppressions(reg_src)
        registry = parse_registry(reg_src, REGISTRY_REL, reg_suppressed,
                                  reg_raw)
    else:
        registry = Registry()
        registry.findings.append(Finding(
            REGISTRY_REL, 1, "slumber-d6",
            "stream-tag registry src/util/stream_tags.h not found: "
            "every keyed RNG tag must be declared there"))

    compile_args = load_compile_args(build_dir) if engine == "ast" else {}
    fallback_args = ["-xc++", "-std=c++20", "-I" + os.path.join(
        root, "src")]
    cache_dir = os.path.join(build_dir, ".slumber-ast-cache")
    if use_cache:
        os.makedirs(cache_dir, exist_ok=True)
    base_key = "\0".join((engine, analyzer_digest(),
                          libclang_version() if engine == "ast" else "-",
                          file_sha(registry_path), env.digest()))

    results: list[FileResult] = []
    hits = 0
    analyzed = 0
    for abspath, relpath in files:
        key = hashlib.sha256(
            (base_key + "\0" + relpath + "\0" +
             file_sha(abspath)).encode()).hexdigest()
        cache_path = os.path.join(cache_dir, key + ".json")
        if use_cache and os.path.isfile(cache_path):
            try:
                with open(cache_path, "r", encoding="utf-8") as fh:
                    cached = json.load(fh)
                results.append(FileResult(
                    relpath,
                    [Finding(*f) for f in cached["findings"]],
                    [FuncDef(name=f[0], qual=f[1], line=f[2],
                             calls=set(f[3]), reads_obs=f[4])
                     for f in cached["funcs"]],
                    {int(k): set(v)
                     for k, v in cached["d8_suppressed"].items()}))
                hits += 1
                continue
            except (OSError, json.JSONDecodeError, KeyError,
                    TypeError):
                pass
        result = analyze_one(abspath, relpath, engine, env, registry,
                             compile_args.get(abspath, fallback_args))
        analyzed += 1
        results.append(result)
        if use_cache:
            tmp = cache_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({
                    "findings": [[f.path, f.line, f.rule, f.message]
                                 for f in result.findings],
                    "funcs": [[f.name, f.qual, f.line,
                               sorted(f.calls), f.reads_obs]
                              for f in result.funcs],
                    "d8_suppressed": {
                        str(k): sorted(v)
                        for k, v in result.d8_suppressed.items()},
                }, fh)
            os.replace(tmp, cache_path)

    findings = list(registry.findings)
    for result in results:
        findings.extend(result.findings)
    d8_models = []
    for result in results:
        model = FileModel(relpath=result.relpath,
                          src=SourceFile(path=result.relpath))
        model.funcs = result.funcs
        d8_models.append(model)
    findings += check_d8(
        d8_models, {r.relpath: r.d8_suppressed for r in results})
    # Registry findings can be duplicated when the registry is also a
    # scanned file; dedup keeps reports stable.
    unique = sorted(set(findings),
                    key=lambda f: (f.path, f.line, f.rule, f.message))
    return unique, hits, analyzed


# --------------------------------------------------------------------------
# fixtures / self-test
# --------------------------------------------------------------------------

def fixture_scope(name: str) -> str:
    if name.startswith(("d5_", "d7_")):
        return f"src/bulk/{name}"
    if name.startswith("d6_"):
        return f"src/fault/{name}"
    if name.startswith("d8_obs_"):
        return f"src/obs/{name}"
    return f"src/lint_fixture/{name}"


def run_self_test(fixtures_dir: str, engine: str) -> int:
    if not os.path.isdir(fixtures_dir):
        print(f"error: fixtures dir not found: {fixtures_dir}",
              file=sys.stderr)
        return 2
    names = sorted(n for n in os.listdir(fixtures_dir)
                   if n.endswith(CXX_EXTENSIONS))
    if not names:
        print("error: no fixtures found", file=sys.stderr)
        return 2
    files = [(os.path.join(fixtures_dir, n), fixture_scope(n))
             for n in names]
    env = build_env(files)

    registry = Registry()
    reg_fixture = os.path.join(fixtures_dir, "d6_registry_ok.h")
    if os.path.isfile(reg_fixture):
        with open(reg_fixture, "r", encoding="utf-8") as fh:
            reg_raw = fh.read()
        reg_src = sc.strip_to_views("d6_registry_ok.h", reg_raw)
        registry = parse_registry(reg_src, "d6_registry_ok.h", {}, reg_raw)

    failures: list[str] = []
    expectations = 0
    d8_models: list[FileModel] = []
    d8_suppressed: dict[str, dict[int, set[str]]] = {}
    actual_by_file: dict[str, list[Finding]] = {}
    for abspath, scope in files:
        name = os.path.basename(abspath)
        with open(abspath, "r", encoding="utf-8") as fh:
            text = fh.read()
        src = sc.strip_to_views(scope, text)
        suppressed, nolint_findings = sc.nolint_suppressions(src)
        findings = list(nolint_findings)
        if name.startswith("d6_registry_"):
            findings += parse_registry(src, scope, suppressed, text).findings
        else:
            model = build_model_structural(src, scope)
            findings += check_d5(model, env, suppressed)
            findings += check_d6_callsites(model, registry, suppressed)
            findings += check_d7(model, env, suppressed)
            if name.startswith("d8_"):
                d8_models.append(model)
                d8_suppressed[scope] = suppressed
        actual_by_file[scope] = findings
    for finding in check_d8(d8_models, d8_suppressed):
        actual_by_file.setdefault(finding.path, []).append(finding)

    for abspath, scope in files:
        name = os.path.basename(abspath)
        with open(abspath, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        expected: set[tuple[int, str]] = set()
        for idx, line in enumerate(lines):
            for m in MUST_FLAG_RE.finditer(line):
                expected.add((idx + 1, m.group("rule")))
        expectations += len(expected)
        actual_findings = actual_by_file.get(scope, [])
        actual = {(f.line, f.rule) for f in actual_findings}
        for line_no, rule in sorted(expected - actual):
            failures.append(
                f"{name}:{line_no}: expected {rule} finding, got none")
        for line_no, rule in sorted(actual - expected):
            msg = next(f.message for f in actual_findings
                       if (f.line, f.rule) == (line_no, rule))
            failures.append(
                f"{name}:{line_no}: unexpected {rule} finding: {msg}")

    label = f"engine=structural{'+ast' if engine == 'ast' else ''}"
    if failures:
        print(f"ast_checks self-test: FAIL ({len(failures)} mismatches "
              f"over {len(files)} fixtures, {label})")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"ast_checks self-test: OK ({len(files)} fixtures, "
          f"{expectations} must-flag expectations, {label})")
    return 0


# --------------------------------------------------------------------------
# output + main
# --------------------------------------------------------------------------

def emit_gha(findings: list[Finding]) -> None:
    for f in findings:
        message = f.message.replace("%", "%25").replace(
            "\n", "%0A")
        print(f"::error file={f.path},line={f.line},"
              f"title={f.rule}::{message}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="slumber-lint v2 dataflow checks (D5-D8)")
    parser.add_argument("paths", nargs="*",
                        help="restrict to these repo-relative files/dirs")
    parser.add_argument("--root", default=None)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--engine", default="auto",
                        choices=("auto", "ast", "structural"))
    parser.add_argument("--require", action="store_true",
                        help="fail (exit 2) when the requested engine "
                             "is unavailable instead of skipping")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--report", default=None)
    parser.add_argument("--gha", action="store_true",
                        help="also emit GitHub Actions ::error "
                             "annotations (auto under GITHUB_ACTIONS)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="accepted for runner-interface parity; "
                             "the analysis is single-process")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(here, "..", ".."))

    if args.list_rules:
        print(__doc__)
        return 0

    engine = args.engine
    if engine == "auto":
        engine = "ast" if HAVE_LIBCLANG else "skip"
    elif engine == "ast" and not HAVE_LIBCLANG:
        engine = "skip"
    if args.self_test:
        # The self-test always has an engine to run: the structural
        # engine is dependency-free, so "no libclang" degrades the
        # fixture check rather than skipping it.
        if engine == "skip":
            engine = "structural"
        return run_self_test(os.path.join(here, "fixtures_ast"), engine)
    if engine == "skip":
        msg = ("ast_checks: libclang python bindings not importable; "
               "skipping the AST half of the lint pass (the lexical "
               "checkers in slumber_checks.py remain the floor). "
               "`pip install libclang` to enable, or run with "
               "--engine structural.")
        if args.require:
            print(f"error: {msg}", file=sys.stderr)
            return 2
        print(msg)
        return 0

    all_files = list(iter_tree_files(root))
    if args.paths:
        wanted = [p.rstrip("/") for p in args.paths]
        all_files = [
            (a, r) for a, r in all_files
            if any(r == w or r.startswith(w + "/") for w in wanted)]
    if not all_files:
        print("ast_checks: no files selected")
        return 0

    findings, hits, analyzed = run_scan(
        all_files, engine, root, os.path.abspath(args.build_dir),
        use_cache=not args.no_cache)

    body = "\n".join(f.render() for f in findings)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(body + ("\n" if body else ""))
    if body:
        print(body)
    if args.gha or os.environ.get("GITHUB_ACTIONS"):
        emit_gha(findings)
    summary = (f"ast_checks: {len(all_files)} files "
               f"({hits} cached, {analyzed} analyzed), "
               f"{len(findings)} finding(s), engine={engine}")
    print(summary, file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
