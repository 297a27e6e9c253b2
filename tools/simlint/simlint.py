#!/usr/bin/env python3
"""simlint -- determinism & state-coverage static analysis for the ReStore simulator.

Every result this repo reports rests on three invariants:

  1. Campaigns are deterministic: byte-identical traces at any worker count,
     across interrupt+resume, and across platforms.
  2. The StateRegistry enumerates the *complete* injectable state surface, so
     fig4-style denominators (paper section 4.2, ~46k bits) are trustworthy.
  3. Shared state crossing worker threads and serialized state crossing the
     fleet wire stay consistent: every guarded member is annotated for
     Clang's thread-safety analysis, and every wire/trace schema surface
     (MessageType, JSONL keys) stays in sync with its readers and tests.

simlint checks all three statically, with seven rule families:

  DET  (nondeterminism)   std::random_device / rand / wall-clock reads /
                          getenv outside the CLI layer / standard-library
                          distributions (implementation-defined sequences) /
                          uninitialized members of aggregate payload structs.
                          Inside the *simulated* paths (det.sim_paths, the
                          vm/uarch machine models) additionally: host sleeps
                          and socket/IO syscalls (DET-SLEEP / DET-SOCKET) —
                          simulated time advances by cycle ticks and all
                          networking belongs to the service layer, which is
                          deliberately outside sim_paths.
  ITER (iteration order)  iteration over std::unordered_* containers and
                          pointer-keyed ordered containers anywhere results
                          can feed the trace/stats/export layers.
  COV  (registry cover)   cross-checks state_registry.cpp registrations
                          against the Core/payload-struct member declarations:
                          unregistered state, width/extent mismatches, dead
                          accessors, duplicate registrations, stale excludes.
  ID   (campaign identity) every CLI flag and environment override must be
                          classified (identity-hash / identity-manifest /
                          presentation / analysis); identity-relevant inputs
                          must demonstrably feed config_hash or the manifest
                          comparison, so campaign identity can never silently
                          drift.
  PERF (hot-path alloc)   allocation discipline in the declared trial
                          inner-loop files (perf.hot_paths): naked `new`,
                          make_unique/make_shared and whole-container copies
                          run once per trial — hundreds of thousands of
                          times per campaign — so each must be hoisted,
                          amortised (once per injection point or shard),
                          or carry an inline allow() ledger entry
                          explaining why it is cold.
  CONC (lock discipline)  mutex-owning classes with mutable members missing
                          RESTORE_GUARDED_BY annotations (the clang thread-
                          safety analysis only enforces what is annotated),
                          manual .lock()/.unlock() outside the RAII wrapper
                          types, and predicate-less condition-variable waits;
                          deliberate exceptions live in the [[conc.exclude]]
                          ledger with a mandatory reason.
  SCHEMA (wire drift)     cross-checks the MessageType enum against
                          kMessageTypeCount, the kTypeNames wire-name table,
                          the encode/decode switch arms, and the round-trip
                          protocol test, plus JSONL key symmetry between each
                          campaign_io writer and its paired reader.

The tool is engine-agnostic by design: when libclang's python bindings are
available they could replace the lexical engine, but the default engine is a
dependency-free comment/string-aware scanner so the lint runs in any
environment that has Python 3.11+ (tomllib). File discovery prefers the
compile_commands.json database (written by CMake with
CMAKE_EXPORT_COMPILE_COMMANDS=ON) and falls back to globbing the configured
roots.

Suppression: a line containing `simlint: allow(RULE-ID[, RULE-ID...]) -- reason`
suppresses those rules on that line and the next. The reason is mandatory.

Exit status: 0 clean, 1 findings, 2 configuration/internal error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
from dataclasses import dataclass, field

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
    tomllib = None

# ---------------------------------------------------------------------------
# findings & suppression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    path: str  # repo-relative
    line: int  # 1-based; 0 = file-level
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


ALLOW_RE = re.compile(r"simlint:\s*allow\(([A-Z0-9\-, ]+)\)\s*--\s*\S")


def allowed_rules_by_line(raw_text: str) -> dict[int, set[str]]:
    """Map line -> rules suppressed on that line (and the following line)."""
    allowed: dict[int, set[str]] = {}
    for i, line in enumerate(raw_text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allowed.setdefault(i, set()).update(rules)
        allowed.setdefault(i + 1, set()).update(rules)
    return allowed


# ---------------------------------------------------------------------------
# lexical engine: comment/string-aware scrubbing
# ---------------------------------------------------------------------------


def scrub(text: str, keep_strings: bool) -> str:
    """Blank comments (and string/char contents unless keep_strings) with
    spaces, preserving line structure so regex matches carry line numbers."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_C, BLOCK_C, STR, CHR, RAWSTR = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_C
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_C
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = RAWSTR
                    out.append(" " * m.end())
                    i += m.end()
                    continue
            if c == '"':
                state = STR
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = CHR
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE_C:
            if c == "\n":
                state = NORMAL
                out.append(c)
            elif c == "\\" and nxt == "\n":
                out.append(" \n")
                i += 1
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_C:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        elif state == STR:
            if c == "\\" and nxt:
                out.append(c + nxt if keep_strings else "  ")
                i += 2
                continue
            if c == '"':
                state = NORMAL
                out.append(c)
            elif c == "\n":  # unterminated; bail to normal
                state = NORMAL
                out.append(c)
            else:
                out.append(c if keep_strings else " ")
            i += 1
        elif state == CHR:
            if c == "\\" and nxt:
                out.append(c + nxt if keep_strings else "  ")
                i += 2
                continue
            if c == "'":
                state = NORMAL
                out.append(c)
            elif c == "\n":
                state = NORMAL
                out.append(c)
            else:
                out.append(c if keep_strings else " ")
            i += 1
        else:  # RAWSTR
            if text.startswith(raw_delim, i):
                state = NORMAL
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
                continue
            out.append(c if c == "\n" else (c if keep_strings else " "))
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


@dataclass
class SourceFile:
    path: str  # repo-relative, '/'-separated
    raw: str
    code: str = ""  # comments stripped, strings blanked
    code_str: str = ""  # comments stripped, strings kept
    allowed: dict[int, set[str]] = field(default_factory=dict)

    def __post_init__(self):
        self.code = scrub(self.raw, keep_strings=False)
        self.code_str = scrub(self.raw, keep_strings=True)
        self.allowed = allowed_rules_by_line(self.raw)


# ---------------------------------------------------------------------------
# config & file discovery
# ---------------------------------------------------------------------------


class ConfigError(Exception):
    pass


def load_config(path: str) -> dict:
    if tomllib is None:
        raise ConfigError("python >= 3.11 (tomllib) is required to read " + path)
    try:
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except tomllib.TOMLDecodeError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e


def discover_files(repo: str, roots: list[str], compdb: str | None) -> list[str]:
    """Repo-relative paths of every .cpp/.hpp under `roots`. When a
    compile_commands.json is given, its entries are unioned in so generated
    or out-of-tree translation units in the build are linted too."""
    found: set[str] = set()
    for root in roots:
        base = os.path.join(repo, root)
        for ext in ("cpp", "hpp", "h", "cc"):
            for p in glob.glob(os.path.join(base, "**", f"*.{ext}"), recursive=True):
                found.add(os.path.relpath(p, repo).replace(os.sep, "/"))
    if compdb and os.path.exists(compdb):
        try:
            with open(compdb, "r", encoding="utf-8") as fh:
                entries = json.load(fh)
            for entry in entries:
                p = os.path.normpath(
                    os.path.join(entry.get("directory", ""), entry["file"])
                )
                rel = os.path.relpath(p, repo).replace(os.sep, "/")
                if rel.startswith(".."):
                    continue
                if any(rel == r or rel.startswith(r + "/") for r in roots):
                    found.add(rel)
        except (OSError, json.JSONDecodeError, KeyError):
            pass  # compdb is an accelerator, never a requirement
    return sorted(found)


def in_paths(path: str, roots: list[str]) -> bool:
    return any(
        r in (".", "") or path == r or path.startswith(r.rstrip("/") + "/")
        for r in roots
    )


# ---------------------------------------------------------------------------
# DET family: nondeterminism sources
# ---------------------------------------------------------------------------

DET_PATTERNS: list[tuple[str, re.Pattern, str]] = [
    (
        "DET-RAND",
        re.compile(
            r"\bstd::random_device\b|\brandom_device\b|\bsrand\s*\(|"
            r"(?<![\w:])rand\s*\(\s*\)|\bstd::rand\b|\brandom_shuffle\b"
        ),
        "hardware/libc randomness breaks campaign reproducibility; "
        "all randomness must flow through common/rng.hpp (Rng)",
    ),
    (
        "DET-RAND",
        re.compile(r"\bstd::\w+_distribution\b|\bstd::shuffle\b"),
        "standard-library distributions/shuffle have implementation-defined "
        "sequences; use Rng::below/range/uniform for cross-platform identity",
    ),
    (
        "DET-TIME",
        re.compile(
            r"\bsystem_clock\b|\bhigh_resolution_clock\b|\bgettimeofday\b|"
            r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0|&)|\bstd::time\s*\(|"
            r"(?<![\w:.])clock\s*\(\s*\)|\blocaltime\b|\bgmtime\b"
        ),
        "wall-clock reads are nondeterministic; steady_clock is allowed for "
        "telemetry only (never in a trial record)",
    ),
]

GETENV_RE = re.compile(r"\b(?:std::)?(?:secure_)?getenv\s*\(")

# Simulated-path-only hazards (det.sim_paths: the vm/uarch machine models).
# A sleep ties trial behaviour to the host scheduler; a socket syscall leaks
# host state into a trial. Both are legitimate *outside* the simulator — the
# orchestrator's retry backoff sleeps, and src/service is a socket server —
# so these rules scope to sim_paths instead of the whole det.paths set.
SIM_IO_PATTERNS: list[tuple[str, re.Pattern, str]] = [
    (
        "DET-SLEEP",
        re.compile(
            r"\bstd::this_thread::sleep_(?:for|until)\b|\bsleep_(?:for|until)\s*\(|"
            r"(?<![\w:])(?:u|nano)?sleep\s*\("
        ),
        "host sleeps inside simulated code tie trial behaviour to the host "
        "scheduler; simulated time advances via cycle ticks (host sleeps "
        "belong in the supervision/service layers)",
    ),
    (
        "DET-SOCKET",
        re.compile(
            r"(?<![\w.:])(?:::)?(?:socket|connect|bind|listen|accept|recv|"
            r"recvfrom|send|sendto|poll|select|epoll_wait)\s*\("
        ),
        "socket/IO syscalls inside simulated code leak host state into "
        "trials; networking belongs in the service layer (src/service)",
    ),
]


def check_det(files: list[SourceFile], cfg: dict) -> list[Finding]:
    findings: list[Finding] = []
    det_cfg = cfg.get("det", {})
    roots = det_cfg.get("paths", ["src"])
    sim_roots = det_cfg.get("sim_paths", [])
    env_allowed = set(det_cfg.get("env_allowed_files", []))
    for sf in files:
        if not in_paths(sf.path, roots):
            continue
        for rule, pat, msg in DET_PATTERNS:
            for m in pat.finditer(sf.code):
                findings.append(Finding(sf.path, line_of(sf.code, m.start()), rule, msg))
        if sim_roots and in_paths(sf.path, sim_roots):
            for rule, pat, msg in SIM_IO_PATTERNS:
                for m in pat.finditer(sf.code):
                    findings.append(
                        Finding(sf.path, line_of(sf.code, m.start()), rule, msg)
                    )
        if sf.path not in env_allowed:
            for m in GETENV_RE.finditer(sf.code):
                findings.append(
                    Finding(
                        sf.path,
                        line_of(sf.code, m.start()),
                        "DET-ENV",
                        "getenv outside the CLI layer bypasses the campaign "
                        "identity table; route overrides through common/cli",
                    )
                )
        findings.extend(check_uninit_members(sf))
    return findings


BUILTIN_WIDTHS = {
    "bool": 1,
    "char": 8,
    "u8": 8,
    "i8": 8,
    "u16": 16,
    "i16": 16,
    "short": 16,
    "u32": 32,
    "i32": 32,
    "int": 32,
    "unsigned": 32,
    "float": 32,
    "u64": 64,
    "i64": 64,
    "double": 64,
    "long": 64,
    "std::size_t": 64,
    "size_t": 64,
}

STRUCT_RE = re.compile(r"\b(struct|class)\s+(\w+)\s*(?:final\s*)?\{")
MEMBER_DECL_RE = re.compile(
    r"^\s*((?:std::)?[\w:]+(?:\s*<[^;<>]*(?:<[^<>]*>)?[^;<>]*>)?(?:\s*\*)?)\s+"
    r"(\w+)\s*(=\s*[^;]+|\{[^;]*\})?\s*;\s*$"
)
NON_MEMBER_KEYWORDS = (
    "return",
    "using",
    "typedef",
    "static",
    "constexpr",
    "friend",
    "explicit",
    "virtual",
    "operator",
    "if",
    "for",
    "while",
    "else",
    "case",
    "delete",
    "new",
    "throw",
    "goto",
    "namespace",
    "template",
    "enum",
)


def body_span(code: str, open_brace: int) -> int:
    """Offset just past the brace matching code[open_brace] ('{')."""
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def aggregate_struct_bodies(code: str):
    """Yield (name, body_text, body_line) for plain aggregate structs: a
    `struct X {` whose body has no access specifier, no user-declared
    constructor, and no nested braces other than member initializers."""
    for m in STRUCT_RE.finditer(code):
        kind, name = m.group(1), m.group(2)
        if kind != "struct":
            continue  # classes establish invariants in constructors
        open_brace = code.index("{", m.end() - 1)
        end = body_span(code, open_brace)
        body = code[open_brace + 1 : end - 1]
        if re.search(r"\b(public|private|protected)\s*:", body):
            continue
        if re.search(rf"\b{name}\s*\(", body):  # user-declared constructor
            continue
        yield name, body, line_of(code, open_brace)


def check_uninit_members(sf: SourceFile) -> list[Finding]:
    """DET-UNINIT: a builtin-typed member of an aggregate payload struct with
    no default member initializer. These structs are copied into latches,
    trace records and snapshots; an uninitialized member injects indeterminate
    (and platform-varying) bits into digests and traces."""
    findings: list[Finding] = []
    for name, body, body_line in aggregate_struct_bodies(sf.code):
        # Only scan top-level statements of the struct body.
        depth = 0
        stmt = []
        stmt_start_line = body_line
        line = body_line
        for ch in body:
            if ch == "\n":
                line += 1
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            if depth == 0 and ch == ";":
                text = "".join(stmt).strip()
                stmt = []
                decl = MEMBER_DECL_RE.match(text + ";")
                if not decl:
                    stmt_start_line = line
                    continue
                type_name, member, init = decl.group(1), decl.group(2), decl.group(3)
                first_word = type_name.split("<")[0].strip().split()[0]
                if first_word in NON_MEMBER_KEYWORDS or "(" in text:
                    stmt_start_line = line
                    continue
                base = type_name.replace("*", "").strip()
                if init is None and (base in BUILTIN_WIDTHS or type_name.endswith("*")):
                    findings.append(
                        Finding(
                            sf.path,
                            stmt_start_line,
                            "DET-UNINIT",
                            f"member '{member}' of aggregate struct '{name}' has no "
                            "default initializer; indeterminate bits reach "
                            "snapshots/digests/trace records",
                        )
                    )
                stmt_start_line = line
            else:
                stmt.append(ch)
                if not "".join(stmt).strip():
                    stmt_start_line = line
    return findings


# ---------------------------------------------------------------------------
# ITER family: iteration-order hazards
# ---------------------------------------------------------------------------

UNORDERED_RE = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b")
PTRKEY_RE = re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<[^<>,]*\*\s*[,>]")


def check_iter(files: list[SourceFile], cfg: dict) -> list[Finding]:
    findings: list[Finding] = []
    roots = cfg.get("iter", {}).get("paths", ["src"])
    for sf in files:
        if not in_paths(sf.path, roots):
            continue
        for m in UNORDERED_RE.finditer(sf.code):
            findings.append(
                Finding(
                    sf.path,
                    line_of(sf.code, m.start()),
                    "ITER-UNORDERED",
                    "unordered containers have platform-varying iteration "
                    "order; anything reachable from the trace/stats/export "
                    "layers must use std::map/std::set/sorted vectors",
                )
            )
        for m in PTRKEY_RE.finditer(sf.code):
            findings.append(
                Finding(
                    sf.path,
                    line_of(sf.code, m.start()),
                    "ITER-PTRKEY",
                    "pointer-keyed ordered container iterates in allocation "
                    "(address) order, which varies run to run; key by a "
                    "stable id instead",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# PERF family: allocation churn in the trial inner loop
# ---------------------------------------------------------------------------

# The trial inner loop (run_trial and everything it calls per cycle) executes
# once per injected bit; a campaign runs it ~10^5-10^6 times. A single naked
# heap allocation there dominates the profile. These rules only apply to the
# files declared in perf.hot_paths; genuinely cold allocations inside them
# (one-time statics, once-per-point builds) carry allow() ledger entries.
PERF_PATTERNS: list[tuple[re.Pattern, str]] = [
    (
        re.compile(r"(?<![\w:.])new\s+[\w:(]"),
        "naked `new` in a trial hot path allocates per call; hoist it out of "
        "the inner loop",
    ),
    (
        re.compile(r"\bstd::make_(?:unique|shared)\s*<"),
        "make_unique/make_shared in a trial hot path heap-allocates per "
        "call; amortise it (once per injection point or shard) or add an "
        "allow() entry explaining why the site is cold",
    ),
    (
        re.compile(
            r"\b(?:std::)?(?:vector|string|deque|map|set|unordered_map|"
            r"unordered_set)\s*<[^;<>]*(?:<[^<>]*>)?[^;<>]*>\s+\w+\s*=\s*"
            r"\w+(?:\.\w+\(\))?\s*;"
        ),
        "whole-container copy in a trial hot path churns the heap; take a "
        "const reference or reuse a preallocated buffer",
    ),
]


def check_perf(files: list[SourceFile], cfg: dict) -> list[Finding]:
    hot = set(cfg.get("perf", {}).get("hot_paths", []))
    findings: list[Finding] = []
    for sf in files:
        if sf.path not in hot:
            continue
        for pat, msg in PERF_PATTERNS:
            for m in pat.finditer(sf.code):
                findings.append(
                    Finding(sf.path, line_of(sf.code, m.start()), "PERF-ALLOC", msg)
                )
    return findings


# ---------------------------------------------------------------------------
# COV family: StateRegistry coverage
# ---------------------------------------------------------------------------

CONSTEXPR_RE = re.compile(
    r"\b(?:inline\s+)?constexpr\s+(?:unsigned|u8|u16|u32|u64|int|std::size_t|auto)\s+"
    r"(\w+)\s*=\s*([^;]+);"
)
EXPR_OK_RE = re.compile(r"^[\w\s+\-*/()]+$")


def parse_constants(texts: list[str]) -> dict[str, int]:
    """Collect `constexpr <int-type> kName = expr;` values, resolving
    references between them iteratively."""
    raw: dict[str, str] = {}
    for text in texts:
        for m in CONSTEXPR_RE.finditer(text):
            raw[m.group(1)] = m.group(2).strip()
    values: dict[str, int] = {}
    for _ in range(len(raw) + 1):
        progressed = False
        for name, expr in raw.items():
            if name in values:
                continue
            val = eval_int(expr, values)
            if val is not None:
                values[name] = val
                progressed = True
        if not progressed:
            break
    return values


def eval_int(expr: str, constants: dict[str, int]) -> int | None:
    expr = expr.replace("isa::", "").replace("uarch::", "").strip()
    if not EXPR_OK_RE.match(expr):
        return None
    for name in re.findall(r"[A-Za-z_]\w*", expr):
        if name not in constants:
            return None
    try:
        return int(eval(expr, {"__builtins__": {}}, dict(constants)))  # noqa: S307
    except Exception:
        return None


def parse_struct_fields(code: str) -> dict[str, list[tuple[str, str]]]:
    """struct name -> [(field, type)] for simple payload structs."""
    structs: dict[str, list[tuple[str, str]]] = {}
    for m in STRUCT_RE.finditer(code):
        name = m.group(2)
        open_brace = code.index("{", m.end() - 1)
        body = code[open_brace + 1 : body_span(code, open_brace) - 1]
        fields: list[tuple[str, str]] = []
        for stmt in body.split(";"):
            decl = MEMBER_DECL_RE.match(stmt.strip() + ";")
            if not decl:
                continue
            type_name = decl.group(1).strip()
            if type_name.split("<")[0].split()[0] in NON_MEMBER_KEYWORDS:
                continue
            # A defaulted `bool operator==(...) = default;` parses as a member
            # named "operator" (the `==...= default` tail matches the
            # initializer group); it is a function, not a field.
            if decl.group(2) in NON_MEMBER_KEYWORDS:
                continue
            fields.append((decl.group(2), type_name))
        if fields:
            structs[name] = fields
    return structs


MEMBER_REGION_START = re.compile(r"-{2,}\s*Machine state")
ARRAY_MEMBER_RE = re.compile(
    r"^std::array\s*<\s*(?:std::array\s*<\s*)?([\w:]+)\s*,\s*([\w:]+)\s*>"
    r"(?:\s*,\s*([\w:]+)\s*>)?$"
)


@dataclass
class CoreMember:
    name: str
    elem_type: str  # scalar type or payload struct name
    extent_expr: str  # "1" for scalars, product expr for arrays
    line: int
    injectable: bool  # False when annotated "not injectable"
    registrable: bool = True  # False for dynamic members (vector etc.)


def parse_core_members(sf: SourceFile, cfg: dict) -> list[Finding] | list[CoreMember]:
    """Parse the Core machine-state region (marker comment .. `private:`)."""
    code = sf.code
    m = MEMBER_REGION_START.search(sf.raw)
    if not m:
        return [
            Finding(
                sf.path,
                0,
                "COV-PARSE",
                "cannot find the '---- Machine state' marker in Core",
            )
        ]
    start_line = line_of(sf.raw, m.start())
    raw_lines = sf.raw.splitlines()
    code_lines = code.splitlines()
    members: list[CoreMember] = []
    annotated = False
    buf = ""
    buf_line = 0
    for idx in range(start_line, len(raw_lines)):
        raw_line = raw_lines[idx]
        code_line = code_lines[idx] if idx < len(code_lines) else ""
        stripped = raw_line.strip()
        if re.match(r"^\s*private\s*:", code_line):
            break
        if not stripped:
            annotated = False
            if not buf.strip():
                buf = ""
            continue
        if stripped.startswith("//"):
            if "not injectable" in stripped:
                annotated = True
            continue
        if not buf:
            buf_line = idx + 1
        buf += " " + code_line.split("//")[0]
        if ";" not in buf:
            continue
        stmt = buf.strip().rstrip(";").strip()
        buf = ""
        decl = re.match(r"^(.*?)\s+(\w+)\s*(?:=\s*[^;]+|\{\s*\})?$", stmt)
        if not decl:
            continue
        type_name, name = decl.group(1).strip(), decl.group(2)
        if type_name.split("<")[0].split()[0] in NON_MEMBER_KEYWORDS:
            continue
        if name in NON_MEMBER_KEYWORDS:  # e.g. a defaulted operator== decl
            continue
        arr = ARRAY_MEMBER_RE.match(type_name)
        if arr:
            elem, inner, outer = arr.group(1), arr.group(2), arr.group(3)
            extent = f"{inner} * {outer}" if outer else inner
            members.append(CoreMember(name, elem, extent, buf_line, not annotated))
        elif type_name.startswith("std::vector"):
            members.append(
                CoreMember(name, type_name, "0", buf_line, not annotated, False)
            )
        else:
            members.append(CoreMember(name, type_name, "1", buf_line, not annotated))
    return members


@dataclass
class Registration:
    name: str
    kind: str  # "int" | "flag"
    entries_expr: str
    bits_expr: str
    accessor: str  # lambda (or helper-call) body text
    ref_type: str  # declared `-> T&` type, "" if not found
    line: int
    member: str = ""
    field_name: str | None = None


ADD_CALL_RE = re.compile(r"\badd_(int|flag)\s*\(")
HELPER_RE = re.compile(
    r"\bauto\s+(\w+)\s*=\s*\[\]\s*\(\s*Core&\s*\w+\s*,\s*u32\s*\w+\s*\)\s*->\s*"
    r"([\w:]+)\s*&\s*\{\s*return\s+\w+\.(\w+)\s*\["
)
LOCAL_FN_RE = re.compile(r"\bbool\s+(\w+)\s*\(\s*const\s+Core&")


def split_top_args(text: str) -> list[str]:
    # Angle brackets are deliberately not tracked: `-> u64&` in accessor
    # lambdas would unbalance them, and template commas only occur inside
    # parens/braces in this codebase.
    args, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if "".join(cur).strip():
        args.append("".join(cur).strip())
    return args


def parse_registrations(sf: SourceFile):
    """Extract add_int/add_flag calls, helper lambdas and liveness helpers
    from state_registry.cpp."""
    code = sf.code_str
    helpers: dict[str, tuple[str, str]] = {}  # helper -> (member, elem type)
    for m in HELPER_RE.finditer(code):
        helpers[m.group(1)] = (m.group(3), m.group(2))
    live_fns = {m.group(1) for m in LOCAL_FN_RE.finditer(code)}
    regs: list[Registration] = []
    findings: list[Finding] = []
    used_helpers: set[str] = set()
    used_live: set[str] = set()
    for m in ADD_CALL_RE.finditer(code):
        kind = m.group(1)
        open_paren = code.index("(", m.end() - 1)
        depth, end = 0, open_paren
        for i in range(open_paren, len(code)):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        call_line = line_of(code, m.start())
        args = split_top_args(code[open_paren + 1 : end])
        if args and args[0].startswith("std::move"):
            continue  # the generic `add` forwarder inside add_int/add_flag
        min_args = 7 if kind == "int" else 6
        if len(args) < min_args:
            findings.append(
                Finding(
                    sf.path, call_line, "COV-PARSE", f"unparseable add_{kind} call"
                )
            )
            continue
        name_lit = re.match(r'"([^"]+)"', args[0])
        if not name_lit:
            findings.append(
                Finding(sf.path, call_line, "COV-PARSE", "registration name is not a literal")
            )
            continue
        if kind == "int":
            entries_expr, bits_expr, accessor = args[3], args[4], args[5]
            live_arg = args[6]
        else:
            entries_expr, bits_expr, accessor = args[3], "1", args[4]
            live_arg = args[5]
        ref_m = re.search(r"->\s*([\w:]+)\s*&", accessor)
        ref_type = ref_m.group(1) if ref_m else ""
        reg = Registration(
            name_lit.group(1), kind, entries_expr, bits_expr, accessor, ref_type, call_line
        )
        body = re.search(r"return\s+([^;]+);", accessor)
        if body:
            expr = body.group(1).strip()
            direct = re.match(r"\w+\.(\w+)", expr)
            helper_call = re.match(r"(\w+)\s*\(\s*\w+\s*,\s*\w+\s*\)\.(\w+)", expr)
            if helper_call and helper_call.group(1) in helpers:
                used_helpers.add(helper_call.group(1))
                reg.member = helpers[helper_call.group(1)][0]
                reg.field_name = helper_call.group(2)
            elif direct:
                reg.member = direct.group(1)
        if live_arg.strip() in live_fns:
            used_live.add(live_arg.strip())
        regs.append(reg)
    for h in sorted(set(helpers) - used_helpers):
        findings.append(
            Finding(
                sf.path,
                0,
                "COV-DEAD",
                f"slot accessor '{h}' is defined but used by no registration",
            )
        )
    for fn in sorted(live_fns - used_live - {"always_live"}):
        findings.append(
            Finding(
                sf.path,
                0,
                "COV-DEAD",
                f"liveness predicate '{fn}' is defined but used by no registration",
            )
        )
    return regs, findings


def check_cov(files_by_path: dict[str, SourceFile], cfg: dict, repo: str) -> list[Finding]:
    cov = cfg.get("cov")
    if not cov:
        return []
    findings: list[Finding] = []

    def get(path_key: str) -> SourceFile | None:
        rel = cov.get(path_key)
        if rel is None:
            return None
        sf = files_by_path.get(rel)
        if sf is None and os.path.exists(os.path.join(repo, rel)):
            with open(os.path.join(repo, rel), "r", encoding="utf-8") as fh:
                sf = SourceFile(rel, fh.read())
            files_by_path[rel] = sf
        if sf is None:
            findings.append(
                Finding(rel, 0, "COV-PARSE", f"configured {path_key} not found")
            )
        return sf

    core_sf = get("core_header")
    payload_sf = get("payload_header")
    registry_sf = get("registry_source")
    if core_sf is None or registry_sf is None:
        return findings
    const_texts = []
    for rel in cov.get("config_headers", []):
        sf = files_by_path.get(rel)
        if sf is None and os.path.exists(os.path.join(repo, rel)):
            with open(os.path.join(repo, rel), "r", encoding="utf-8") as fh:
                sf = SourceFile(rel, fh.read())
                files_by_path[rel] = sf
        if sf is not None:
            const_texts.append(sf.code)
    const_texts.append(registry_sf.code_str)
    const_texts.append(core_sf.code)
    constants = parse_constants(const_texts)

    structs = parse_struct_fields(payload_sf.code) if payload_sf is not None else {}
    members_or_findings = parse_core_members(core_sf, cfg)
    if members_or_findings and isinstance(members_or_findings[0], Finding):
        return findings + members_or_findings
    members: list[CoreMember] = members_or_findings  # type: ignore[assignment]
    member_by_name = {m.name: m for m in members}

    regs, parse_findings = parse_registrations(registry_sf)
    findings.extend(parse_findings)

    # Exclusions: (member, field-or-None) -> reason, from config.
    exclusions: dict[tuple[str, str | None], str] = {}
    for entry in cov.get("exclude", []):
        member = entry.get("member")
        reason = entry.get("reason", "").strip()
        if not member or not reason:
            findings.append(
                Finding(
                    cov.get("registry_source", "simlint.toml"),
                    0,
                    "COV-CONFIG",
                    f"cov.exclude entry {entry!r} needs member and a non-empty reason",
                )
            )
            continue
        exclusions[(member, entry.get("field"))] = reason

    # Index registrations by coverage target.
    covered: dict[tuple[str, str | None], list[Registration]] = {}
    seen_names: dict[str, Registration] = {}
    for reg in regs:
        if reg.name in seen_names:
            findings.append(
                Finding(
                    registry_sf.path,
                    reg.line,
                    "COV-DUP",
                    f"registration name '{reg.name}' is registered twice",
                )
            )
        seen_names[reg.name] = reg
        if not reg.member:
            findings.append(
                Finding(
                    registry_sf.path,
                    reg.line,
                    "COV-PARSE",
                    f"cannot resolve the member accessed by '{reg.name}'",
                )
            )
            continue
        covered.setdefault((reg.member, reg.field_name), []).append(reg)

        if reg.member not in member_by_name:
            findings.append(
                Finding(
                    registry_sf.path,
                    reg.line,
                    "COV-DEAD",
                    f"registration '{reg.name}' accesses '{reg.member}', which is "
                    "not a Core machine-state member (dead accessor)",
                )
            )
            continue
        member = member_by_name[reg.member]

        # Width check: declared bits_per_entry must fit the storage type.
        width = BUILTIN_WIDTHS.get(reg.ref_type)
        bits = eval_int(reg.bits_expr, constants)
        if bits is None:
            findings.append(
                Finding(
                    registry_sf.path,
                    reg.line,
                    "COV-PARSE",
                    f"cannot evaluate bits expression '{reg.bits_expr}' of '{reg.name}'",
                )
            )
        elif width is not None and (bits < 1 or bits > width):
            findings.append(
                Finding(
                    registry_sf.path,
                    reg.line,
                    "COV-WIDTH",
                    f"'{reg.name}' declares {bits} bits_per_entry but its storage "
                    f"type {reg.ref_type} holds {width} bits",
                )
            )
        if reg.kind == "flag" and reg.ref_type and reg.ref_type != "bool":
            findings.append(
                Finding(
                    registry_sf.path,
                    reg.line,
                    "COV-WIDTH",
                    f"add_flag '{reg.name}' targets non-bool storage {reg.ref_type}",
                )
            )

        # Extent check: entries must equal the member's array extent.
        entries = eval_int(reg.entries_expr, constants)
        extent = eval_int(member.extent_expr, constants)
        if entries is None:
            findings.append(
                Finding(
                    registry_sf.path,
                    reg.line,
                    "COV-PARSE",
                    f"cannot evaluate entries expression '{reg.entries_expr}' of "
                    f"'{reg.name}'",
                )
            )
        elif extent is not None and entries != extent:
            findings.append(
                Finding(
                    registry_sf.path,
                    reg.line,
                    "COV-EXTENT",
                    f"'{reg.name}' registers {entries} entries but Core member "
                    f"'{member.name}' has extent {extent}",
                )
            )

    # Coverage: every injectable (member, field) pair must be registered or
    # excluded with a reason.
    expected: list[tuple[str, str | None, CoreMember]] = []
    for member in members:
        if not member.injectable or not member.registrable:
            continue
        if member.elem_type in structs:
            for field_name, _ftype in structs[member.elem_type]:
                expected.append((member.name, field_name, member))
        else:
            expected.append((member.name, None, member))
    for mname, fname, member in expected:
        key = (mname, fname)
        if key in covered:
            if key in exclusions:
                findings.append(
                    Finding(
                        core_sf.path,
                        member.line,
                        "COV-STALE-EXCLUDE",
                        f"exclusion for {mname}"
                        + (f".{fname}" if fname else "")
                        + " is stale: the pair is registered",
                    )
                )
            continue
        if key in exclusions or (mname, None) in exclusions:
            continue
        label = mname + (f".{fname}" if fname else "")
        findings.append(
            Finding(
                core_sf.path,
                member.line,
                "COV-UNREGISTERED",
                f"machine-state '{label}' is not enumerated by the StateRegistry "
                "and not excluded with a reason; fig4 denominators are wrong "
                "until it is registered or excluded in simlint.toml",
            )
        )
    known_pairs = {(m, f) for m, f, _ in expected} | set(covered)
    known_members = {m.name for m in members}
    for (mname, fname), _reason in exclusions.items():
        if mname not in known_members:
            findings.append(
                Finding(
                    core_sf.path,
                    0,
                    "COV-STALE-EXCLUDE",
                    f"exclusion references unknown Core member '{mname}'",
                )
            )
        elif fname is not None and (mname, fname) not in known_pairs:
            findings.append(
                Finding(
                    core_sf.path,
                    0,
                    "COV-STALE-EXCLUDE",
                    f"exclusion references unknown field '{mname}.{fname}'",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# ID family: campaign-identity coverage of CLI flags and env overrides
# ---------------------------------------------------------------------------

FLAG_USE_RE = re.compile(
    r"\.\s*(?:value|value_u64|value_double|has_flag)\s*\(\s*\"([a-z0-9\-]+)\""
)
ENV_TABLE_RE = re.compile(r'\{\s*"(\w+)"\s*,\s*EnvClass::k(\w+)\s*\}')
ENV_LITERAL_RE = re.compile(r'\bgetenv\s*\(\s*"(\w+)"|env_u64\s*\(\s*"(\w+)"')
ID_CLASSES = {"identity-hash", "identity-manifest", "presentation", "analysis"}


def function_body(code: str, signature_re: str) -> str:
    m = re.search(signature_re, code)
    if not m:
        return ""
    open_brace = code.find("{", m.end())
    if open_brace < 0:
        return ""
    return code[open_brace : body_span(code, open_brace)]


def check_id(files_by_path: dict[str, SourceFile], cfg: dict, repo: str) -> list[Finding]:
    ident = cfg.get("identity")
    if not ident:
        return []
    findings: list[Finding] = []
    scan_roots = ident.get("flag_scan_paths", ["src", "bench", "tools", "examples"])

    def load(rel: str) -> SourceFile | None:
        sf = files_by_path.get(rel)
        if sf is None and os.path.exists(os.path.join(repo, rel)):
            with open(os.path.join(repo, rel), "r", encoding="utf-8") as fh:
                sf = SourceFile(rel, fh.read())
            files_by_path[rel] = sf
        return sf

    # Hash-function and manifest-comparison bodies (coverage witnesses).
    hash_bodies = ""
    for rel in ident.get("hash_sources", []):
        sf = load(rel)
        if sf is None:
            findings.append(Finding(rel, 0, "ID-CONFIG", "hash source not found"))
            continue
        hash_bodies += function_body(sf.code_str, r"\bu64\s+config_hash\s*\(")
    manifest_body = ""
    rel = ident.get("manifest_source")
    if rel:
        sf = load(rel)
        if sf is not None:
            manifest_body = function_body(sf.code_str, r"\bbool\s+matches\s*\(")

    # Environment overrides: code table vs config classification.
    env_cfg: dict[str, dict] = ident.get("env", {})
    table_rel = ident.get("env_table_source", "src/common/cli.cpp")
    table_sf = load(table_rel)
    declared_env: dict[str, str] = {}
    if table_sf is None:
        findings.append(Finding(table_rel, 0, "ID-CONFIG", "env table source not found"))
    else:
        for m in ENV_TABLE_RE.finditer(table_sf.code_str):
            declared_env[m.group(1)] = m.group(2)
        if not declared_env:
            findings.append(
                Finding(
                    table_rel,
                    0,
                    "ID-ENV-TABLE",
                    "no kEnvOverrides table found; every env override must be "
                    "declared centrally with an EnvClass",
                )
            )
        for m in ENV_LITERAL_RE.finditer(table_sf.code_str):
            name = m.group(1) or m.group(2)
            if name not in declared_env:
                findings.append(
                    Finding(
                        table_sf.path,
                        line_of(table_sf.code_str, m.start()),
                        "ID-ENV-UNDECLARED",
                        f"environment override '{name}' is read but not declared "
                        "in the kEnvOverrides identity table",
                    )
                )
    for name, cls in declared_env.items():
        entry = env_cfg.get(name)
        if entry is None:
            findings.append(
                Finding(
                    table_rel,
                    0,
                    "ID-ENV-UNCLASSIFIED",
                    f"env override '{name}' is not classified in simlint.toml "
                    "[identity.env]",
                )
            )
            continue
        want = "Identity" if entry.get("class") == "identity" else "Presentation"
        if cls != want:
            findings.append(
                Finding(
                    table_rel,
                    0,
                    "ID-ENV-MISMATCH",
                    f"env override '{name}': code declares EnvClass::k{cls} but "
                    f"simlint.toml says {entry.get('class')}",
                )
            )
        if entry.get("class") == "identity":
            token = entry.get("hashed_via", "")
            if not token or token not in hash_bodies:
                findings.append(
                    Finding(
                        table_rel,
                        0,
                        "ID-ENV-UNHASHED",
                        f"identity env override '{name}' must feed config_hash via "
                        f"a config field; '{token or '<missing hashed_via>'}' not "
                        "found in any config_hash body",
                    )
                )
    for name in env_cfg:
        if declared_env and name not in declared_env:
            findings.append(
                Finding(
                    table_rel,
                    0,
                    "ID-STALE",
                    f"simlint.toml classifies env override '{name}' which is not "
                    "declared in the code table",
                )
            )

    # CLI flags: every literal consumed anywhere must be classified; identity
    # classes must point at a coverage witness.
    flags_cfg: dict[str, dict] = ident.get("flags", {})
    flags_seen: dict[str, tuple[str, int]] = {}
    for path, sf in sorted(files_by_path.items()):
        if not in_paths(path, scan_roots):
            continue
        for m in FLAG_USE_RE.finditer(sf.code_str):
            flags_seen.setdefault(m.group(1), (path, line_of(sf.code_str, m.start())))
    for flag, (path, line) in sorted(flags_seen.items()):
        entry = flags_cfg.get(flag)
        if entry is None:
            findings.append(
                Finding(
                    path,
                    line,
                    "ID-FLAG-UNCLASSIFIED",
                    f"CLI flag '--{flag}' is not classified in simlint.toml "
                    "[identity.flags]; classify it as identity-hash, "
                    "identity-manifest, presentation or analysis",
                )
            )
            continue
        cls = entry.get("class")
        if cls not in ID_CLASSES:
            findings.append(
                Finding(
                    path,
                    line,
                    "ID-CONFIG",
                    f"flag '--{flag}' has unknown class '{cls}'",
                )
            )
            continue
        if cls == "identity-hash":
            token = entry.get("hashed_via", "")
            if not token or token not in hash_bodies:
                findings.append(
                    Finding(
                        path,
                        line,
                        "ID-FLAG-UNHASHED",
                        f"identity flag '--{flag}' must feed config_hash; config "
                        f"field '{token or '<missing hashed_via>'}' not found in "
                        "any config_hash body",
                    )
                )
        elif cls == "identity-manifest":
            token = entry.get("manifest_field", "")
            if not token or token not in manifest_body:
                findings.append(
                    Finding(
                        path,
                        line,
                        "ID-FLAG-UNHASHED",
                        f"flag '--{flag}' claims manifest identity; field "
                        f"'{token or '<missing manifest_field>'}' not found in "
                        "CampaignManifest::matches()",
                    )
                )
        else:
            if not entry.get("reason", "").strip():
                findings.append(
                    Finding(
                        path,
                        line,
                        "ID-CONFIG",
                        f"{cls} flag '--{flag}' needs a non-empty reason",
                    )
                )
    for flag in sorted(flags_cfg):
        if flag not in flags_seen:
            findings.append(
                Finding(
                    "tools/simlint/simlint.toml",
                    0,
                    "ID-STALE",
                    f"simlint.toml classifies flag '--{flag}' which no binary "
                    "consumes any more",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# CONC family: lock discipline
# ---------------------------------------------------------------------------
#
# The compiler-enforced side of lock discipline is Clang's thread-safety
# analysis over the RESTORE_* capability annotations (thread_annotations.hpp,
# built with -DRESTORE_THREAD_SAFETY=ON in the clang CI job). CONC is the
# engine-agnostic complement that runs everywhere gcc does:
#
#   CONC-UNGUARDED   a class owns a mutex but has mutable members that carry
#                    no RESTORE_GUARDED_BY annotation — the clang analysis
#                    can only prove what is annotated, so an unannotated
#                    member silently opts out of enforcement.
#   CONC-RAW-LOCK    a manual `.lock()` / `.unlock()` call outside the RAII
#                    wrapper types; an exception (or early return) between
#                    the pair deadlocks or double-releases.
#   CONC-CV-NOPRED   a condition-variable wait with no predicate: a spurious
#                    wakeup returns with the condition false. Callers either
#                    pass a predicate or author the `while (!cond) wait;`
#                    loop around the predicate-free *_locked primitives.
#
# Deliberate exceptions live in the [[conc.exclude]] ledger (class + member +
# reason); entries that no longer match anything are CONC-STALE-EXCLUDE.

CONC_MUTEX_RE = re.compile(
    r"^(?:mutable\s+)?(?:restore::)?(?:std::)?"
    r"(?:recursive_mutex|shared_mutex|timed_mutex|recursive_timed_mutex|"
    r"mutex|Mutex)\s+(\w+)\s*(?:;|$)"
)
CONC_SYNC_TYPE_RE = re.compile(
    r"^(?:mutable\s+)?(?:restore::)?(?:std::)?"
    r"(?:condition_variable(?:_any)?|CondVar|atomic\b|atomic_\w+)"
)
CONC_STMT_SKIP_RE = re.compile(
    r"^(?:using|typedef|static|friend|enum|struct|class|union|template|"
    r"operator|virtual|explicit|inline|constexpr|public|private|protected)\b"
)
CONC_RAW_LOCK_RE = re.compile(r"[\w\)\]]\s*(?:\.|->)\s*(lock|unlock)\s*\(\s*\)")
CONC_CV_WAIT_RE = re.compile(r"(?:\.|->)\s*(wait_until|wait_for|wait)\s*\(")


def class_member_statements(body: str, body_line: int):
    """Yield (line, statement) for the top-level declarations of a class
    body. Function definitions are dropped (a `}` closing back to top level
    that is not a brace initializer ends the pending statement), so what
    remains is data members, nested types, and member-function declarations."""
    depth = 0
    stmt: list[str] = []
    line = body_line
    stmt_line = body_line
    i, n = 0, len(body)
    while i < n:
        ch = body[i]
        if ch == "\n":
            line += 1
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                j = i + 1
                while j < n and body[j] in " \t\n":
                    j += 1
                if j >= n or body[j] != ";":
                    # Function/ctor body, not a brace initializer: discard.
                    stmt = []
                    stmt_line = line
                    i += 1
                    continue
        if depth == 0 and ch == ";":
            text = " ".join("".join(stmt).split())
            if text:
                yield stmt_line, text
            stmt = []
            stmt_line = line
        else:
            if not stmt and ch not in " \t\n":
                stmt_line = line
            stmt.append(ch)
        i += 1


def check_conc(files: list[SourceFile], cfg: dict) -> list[Finding]:
    conc = cfg.get("conc", {})
    paths = conc.get("paths", ["src"])
    findings: list[Finding] = []

    # Exclusion ledger: (class, member) -> reason.
    exclusions: dict[tuple[str, str], str] = {}
    for entry in conc.get("exclude", []):
        cls, member = entry.get("class"), entry.get("member")
        reason = entry.get("reason", "").strip()
        if not cls or not member or not reason:
            findings.append(
                Finding(
                    "tools/simlint/simlint.toml",
                    0,
                    "CONC-CONFIG",
                    f"conc.exclude entry {entry!r} needs class, member and a "
                    "non-empty reason",
                )
            )
            continue
        exclusions[(cls, member)] = reason
    matched_exclusions: set[tuple[str, str]] = set()

    for sf in files:
        if not in_paths(sf.path, paths):
            continue

        # CONC-RAW-LOCK: manual lock()/unlock() outside the RAII wrappers.
        for m in CONC_RAW_LOCK_RE.finditer(sf.code):
            findings.append(
                Finding(
                    sf.path,
                    line_of(sf.code, m.start()),
                    "CONC-RAW-LOCK",
                    f"manual .{m.group(1)}() call; an exception between "
                    "lock/unlock deadlocks or double-releases — use "
                    "restore::MutexLock (or std::lock_guard) RAII instead",
                )
            )

        # CONC-CV-NOPRED: condition-variable waits without a predicate.
        for m in CONC_CV_WAIT_RE.finditer(sf.code):
            open_paren = sf.code.index("(", m.end() - 1)
            close = body_span(
                sf.code.replace("(", "{").replace(")", "}"), open_paren
            )
            args = split_top_args(sf.code[open_paren + 1 : close - 1])
            method = m.group(1)
            bare = (method == "wait" and len(args) == 1) or (
                method in ("wait_for", "wait_until") and len(args) == 2
            )
            if bare:
                findings.append(
                    Finding(
                        sf.path,
                        line_of(sf.code, m.start()),
                        "CONC-CV-NOPRED",
                        f"condition-variable {method}() without a predicate: a "
                        "spurious wakeup returns with the condition false — "
                        "pass a predicate or wrap the *_locked primitive in a "
                        "caller-authored while loop",
                    )
                )

        # CONC-UNGUARDED: mutex-owning classes with unannotated mutable state.
        for sm in STRUCT_RE.finditer(sf.code):
            cls_name = sm.group(2)
            open_brace = sf.code.index("{", sm.end() - 1)
            end = body_span(sf.code, open_brace)
            body = sf.code[open_brace + 1 : end - 1]
            body_line = line_of(sf.code, open_brace)
            mutexes: list[str] = []
            candidates: list[tuple[int, str]] = []  # (line, member)
            for stmt_line, text in class_member_statements(body, body_line):
                # Strip access-specifier labels glued to the statement.
                text = re.sub(
                    r"^(?:(?:public|private|protected)\s*:\s*)+", "", text
                )
                if mm := CONC_MUTEX_RE.match(text):
                    mutexes.append(mm.group(1))
                    continue
                if CONC_SYNC_TYPE_RE.match(text):
                    continue  # sync primitives guard, they are not guarded
                if CONC_STMT_SKIP_RE.match(text):
                    continue
                if "RESTORE_GUARDED_BY" in text or "RESTORE_PT_GUARDED_BY" in text:
                    continue  # annotated: the clang analysis owns it now
                if text.startswith("const ") or "&" in text.split("=")[0]:
                    continue  # immutable / reference members
                decl = MEMBER_DECL_RE.match(text + ";" if not text.endswith(";") else text)
                if not decl:
                    decl = MEMBER_DECL_RE.match(text.rstrip(";") + ";")
                if not decl or "(" in text.split("=")[0].split("{")[0]:
                    continue  # member functions / unparsable: conservative
                candidates.append((stmt_line, decl.group(2)))
            if not mutexes:
                continue
            for stmt_line, member in candidates:
                if (cls_name, member) in exclusions:
                    matched_exclusions.add((cls_name, member))
                    continue
                findings.append(
                    Finding(
                        sf.path,
                        stmt_line,
                        "CONC-UNGUARDED",
                        f"'{cls_name}::{member}' is mutable state in a class "
                        f"that owns mutex '{mutexes[0]}' but carries no "
                        "RESTORE_GUARDED_BY annotation; the clang thread-"
                        "safety analysis cannot enforce what is not annotated "
                        "(annotate it, or ledger it in [[conc.exclude]])",
                    )
                )

    for (cls, member), _reason in sorted(exclusions.items()):
        if (cls, member) not in matched_exclusions:
            findings.append(
                Finding(
                    "tools/simlint/simlint.toml",
                    0,
                    "CONC-STALE-EXCLUDE",
                    f"conc.exclude entry {cls}::{member} matches nothing: the "
                    "member is gone, annotated, or its class lost its mutex — "
                    "delete the stale ledger entry",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# SCHEMA family: wire-protocol and trace-schema drift
# ---------------------------------------------------------------------------
#
# The framed wire protocol and the JSONL trace format are both "stringly"
# contracts: nothing in the type system connects the MessageType enum to the
# encode/decode switches, the wire-name table, or the round-trip tests, and
# nothing connects a writer's JSONL keys to its reader's. SCHEMA closes both
# gaps lexically:
#
#   SCHEMA-ENUM       kMessageTypeCount disagrees with the enumerator count.
#   SCHEMA-NAME       an enumerator missing from (or duplicated in) the
#                     kTypeNames wire-name table.
#   SCHEMA-ENCODE     an enumerator with no `case MessageType::kX:` arm in
#                     encode_message.
#   SCHEMA-DECODE     same for decode_message.
#   SCHEMA-ROUNDTRIP  an enumerator not constructed in the round-trip
#                     builder of tests/test_service_protocol.cpp, so its
#                     encode/decode fixpoint is untested.
#   SCHEMA-JSONL      a key written by a campaign_io writer that its paired
#                     reader never reads, or read but never written.
#   SCHEMA-PARSE      a configured source/function could not be parsed.

SCHEMA_ENUM_RE = re.compile(r"enum\s+class\s+MessageType\s*(?::[^{;]*)?\{")
SCHEMA_COUNT_RE = re.compile(r"\bkMessageTypeCount\s*=\s*(\d+)")
SCHEMA_CASE_RE = re.compile(r"\bcase\s+MessageType::(k\w+)\s*:")
SCHEMA_NAME_PAIR_RE = re.compile(r"\{\s*MessageType::(k\w+)\s*,\s*\"([^\"]*)\"")
SCHEMA_USE_RE = re.compile(r"\bMessageType::(k\w+)\b")
SCHEMA_WRITER_KEY_RE = re.compile(
    r"\b(?:append_field|append_latency|append_array|append_string_array)"
    r"\s*\(\s*(?:\w+\s*,\s*)?\"([\w.]+)\""
)
SCHEMA_READER_KEY_RE = re.compile(
    r"\b(?:get_uint|get_string|get_bool|get_latency|find|read_array|"
    r"read_optional_array|read_optional_string_array|uints|strings)"
    r"\s*\(\s*(?:\*?\w+\s*,\s*)?\"([\w.]+)\""
)


def check_schema(files_by_path: dict[str, SourceFile], cfg: dict, repo: str) -> list[Finding]:
    schema = cfg.get("schema")
    if not schema:
        return []
    findings: list[Finding] = []

    def load_rel(rel: str, what: str) -> SourceFile | None:
        sf = files_by_path.get(rel)
        if sf is None and os.path.exists(os.path.join(repo, rel)):
            with open(os.path.join(repo, rel), "r", encoding="utf-8") as fh:
                sf = SourceFile(rel, fh.read())
            files_by_path[rel] = sf
        if sf is None:
            findings.append(
                Finding(rel, 0, "SCHEMA-PARSE", f"configured {what} not found")
            )
        return sf

    def load(key: str) -> SourceFile | None:
        rel = schema.get(key)
        if rel is None:
            return None
        return load_rel(rel, key)

    header_sf = load("protocol_header")
    source_sf = load("protocol_source")
    test_sf = load("protocol_test")

    # -- enumerators and the count constant --
    enumerators: list[str] = []
    if header_sf is not None:
        m = SCHEMA_ENUM_RE.search(header_sf.code)
        if not m:
            findings.append(
                Finding(
                    header_sf.path,
                    0,
                    "SCHEMA-PARSE",
                    "no `enum class MessageType` found",
                )
            )
        else:
            open_brace = header_sf.code.index("{", m.end() - 1)
            body = header_sf.code[
                open_brace + 1 : body_span(header_sf.code, open_brace) - 1
            ]
            enum_line = line_of(header_sf.code, open_brace)
            enumerators = [
                a.split("=")[0].strip()
                for a in split_top_args(body)
                if a.split("=")[0].strip()
            ]
            cm = SCHEMA_COUNT_RE.search(header_sf.code)
            if not cm:
                findings.append(
                    Finding(
                        header_sf.path,
                        enum_line,
                        "SCHEMA-ENUM",
                        "no kMessageTypeCount constant next to MessageType; "
                        "the exhaustiveness test and this lint key off it",
                    )
                )
            elif int(cm.group(1)) != len(enumerators):
                findings.append(
                    Finding(
                        header_sf.path,
                        line_of(header_sf.code, cm.start()),
                        "SCHEMA-ENUM",
                        f"kMessageTypeCount = {cm.group(1)} but MessageType "
                        f"declares {len(enumerators)} enumerators",
                    )
                )

    # -- wire-name table and the encode/decode switch arms --
    if source_sf is not None and enumerators:
        named: dict[str, str] = {}
        by_wire_name: dict[str, str] = {}
        for m in SCHEMA_NAME_PAIR_RE.finditer(source_sf.code_str):
            enum_name, wire = m.group(1), m.group(2)
            if enum_name in named:
                findings.append(
                    Finding(
                        source_sf.path,
                        line_of(source_sf.code_str, m.start()),
                        "SCHEMA-NAME",
                        f"MessageType::{enum_name} appears twice in the "
                        "kTypeNames table",
                    )
                )
            named[enum_name] = wire
            if wire in by_wire_name and by_wire_name[wire] != enum_name:
                findings.append(
                    Finding(
                        source_sf.path,
                        line_of(source_sf.code_str, m.start()),
                        "SCHEMA-NAME",
                        f"wire name '{wire}' maps to both "
                        f"{by_wire_name[wire]} and {enum_name}",
                    )
                )
            by_wire_name[wire] = enum_name
        for func, rule in (("encode_message", "SCHEMA-ENCODE"),
                           ("decode_message", "SCHEMA-DECODE")):
            body = function_body(source_sf.code, rf"\b{func}\s*\(")
            if not body:
                findings.append(
                    Finding(
                        source_sf.path,
                        0,
                        "SCHEMA-PARSE",
                        f"cannot locate the body of {func}()",
                    )
                )
                continue
            cases = {m.group(1) for m in SCHEMA_CASE_RE.finditer(body)}
            for enum_name in enumerators:
                if enum_name not in cases:
                    findings.append(
                        Finding(
                            source_sf.path,
                            0,
                            rule,
                            f"MessageType::{enum_name} has no case arm in "
                            f"{func}(); the type cannot cross the wire",
                        )
                    )
        for enum_name in enumerators:
            if named and enum_name not in named:
                findings.append(
                    Finding(
                        source_sf.path,
                        0,
                        "SCHEMA-NAME",
                        f"MessageType::{enum_name} is missing from the "
                        "kTypeNames wire-name table",
                    )
                )
        for enum_name in named:
            if enum_name not in enumerators:
                findings.append(
                    Finding(
                        source_sf.path,
                        0,
                        "SCHEMA-NAME",
                        f"kTypeNames entry {enum_name} names no MessageType "
                        "enumerator",
                    )
                )

    # -- round-trip coverage in the protocol test --
    if test_sf is not None and enumerators:
        builder = schema.get("roundtrip_function", "one_of_each_type")
        body = function_body(test_sf.code, rf"\b{builder}\s*\(")
        if not body:
            findings.append(
                Finding(
                    test_sf.path,
                    0,
                    "SCHEMA-PARSE",
                    f"cannot locate the round-trip builder {builder}() in the "
                    "protocol test",
                )
            )
        else:
            built = {m.group(1) for m in SCHEMA_USE_RE.finditer(body)}
            for enum_name in enumerators:
                if enum_name not in built:
                    findings.append(
                        Finding(
                            test_sf.path,
                            0,
                            "SCHEMA-ROUNDTRIP",
                            f"MessageType::{enum_name} is never built in "
                            f"{builder}(), so its encode/decode round trip is "
                            "untested",
                        )
                    )

    # -- JSONL writer/reader key symmetry --
    # Each entry pairs a writer with its reader inside one file: the
    # configured `campaign_io` source by default, or the entry's own `file`
    # (other flat-JSON schemas, e.g. the column-store footer, keep their
    # writer/reader pairs next to the format they serialize).
    io_sf = load("campaign_io")
    for pair in schema.get("jsonl", []):
        writer, reader = pair.get("writer"), pair.get("reader")
        label = pair.get("name", f"{writer}/{reader}")
        pair_rel = pair.get("file")
        pair_sf = (
            load_rel(pair_rel, f"schema.jsonl file for '{label}'")
            if pair_rel is not None
            else io_sf
        )
        if pair_sf is None:
            continue
        if not writer or not reader:
            findings.append(
                Finding(
                    pair_sf.path,
                    0,
                    "SCHEMA-PARSE",
                    f"schema.jsonl entry {pair!r} needs writer and reader",
                )
            )
            continue
        wbody = function_body(pair_sf.code_str, rf"\b{re.escape(writer)}\s*\(")
        rbody = function_body(pair_sf.code_str, rf"\b{re.escape(reader)}\s*\(")
        if not wbody or not rbody:
            missing = writer if not wbody else reader
            findings.append(
                Finding(
                    pair_sf.path,
                    0,
                    "SCHEMA-PARSE",
                    f"cannot locate the body of {missing}() for the "
                    f"'{label}' jsonl pair",
                )
            )
            continue
        wkeys = {m.group(1) for m in SCHEMA_WRITER_KEY_RE.finditer(wbody)}
        rkeys = {m.group(1) for m in SCHEMA_READER_KEY_RE.finditer(rbody)}
        for key in sorted(wkeys - rkeys):
            findings.append(
                Finding(
                    pair_sf.path,
                    0,
                    "SCHEMA-JSONL",
                    f"'{label}': key '{key}' is written by {writer}() but "
                    f"never read by {reader}() — schema drift",
                )
            )
        for key in sorted(rkeys - wkeys):
            findings.append(
                Finding(
                    pair_sf.path,
                    0,
                    "SCHEMA-JSONL",
                    f"'{label}': key '{key}' is read by {reader}() but "
                    f"never written by {writer}() — schema drift",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

FAMILIES = {"DET", "ITER", "COV", "ID", "PERF", "CONC", "SCHEMA"}


def run_lint(repo: str, cfg: dict, compdb: str | None, families: set[str]) -> list[Finding]:
    roots = sorted(
        set(cfg.get("det", {}).get("paths", ["src"]))
        | set(cfg.get("iter", {}).get("paths", ["src"]))
        | set(cfg.get("conc", {}).get("paths", ["src"]))
        | set(cfg.get("identity", {}).get("flag_scan_paths", []))
    )
    excluded = cfg.get("exclude_paths", [])
    discovered = set(discover_files(repo, roots, compdb))
    # Hot-path files are named individually (not as glob roots), so union
    # them into the scan set in case they sit outside the configured roots.
    for rel in cfg.get("perf", {}).get("hot_paths", []):
        if os.path.exists(os.path.join(repo, rel)):
            discovered.add(rel)
    files_by_path: dict[str, SourceFile] = {}
    for rel in sorted(discovered):
        if excluded and in_paths(rel, excluded):
            continue  # e.g. the lint's own negative fixtures
        try:
            with open(os.path.join(repo, rel), "r", encoding="utf-8") as fh:
                files_by_path[rel] = SourceFile(rel, fh.read())
        except (OSError, UnicodeDecodeError) as e:
            print(f"simlint: warning: skipping {rel}: {e}", file=sys.stderr)
    files = [files_by_path[p] for p in sorted(files_by_path)]

    findings: list[Finding] = []
    if "DET" in families:
        findings.extend(check_det(files, cfg))
    if "ITER" in families:
        findings.extend(check_iter(files, cfg))
    if "COV" in families:
        findings.extend(check_cov(files_by_path, cfg, repo))
    if "ID" in families:
        findings.extend(check_id(files_by_path, cfg, repo))
    if "PERF" in families:
        findings.extend(check_perf(files, cfg))
    if "CONC" in families:
        findings.extend(check_conc(files, cfg))
    if "SCHEMA" in families:
        findings.extend(check_schema(files_by_path, cfg, repo))

    # Apply inline suppressions.
    kept: list[Finding] = []
    for f in findings:
        sf = files_by_path.get(f.path)
        if sf is not None and f.rule in sf.allowed.get(f.line, set()):
            continue
        kept.append(f)
    return sorted(set(kept), key=lambda f: (f.path, f.line, f.rule, f.message))


EXPECT_RE = re.compile(r"//\s*expect:\s*([A-Z0-9\-]+)")


def self_test(fixtures_root: str) -> int:
    """Run every fixture directory and verify its expectations: each
    `// expect: RULE` must fire for that file, and no *unexpected* rule may
    fire in a fixture file. A fixture named `clean` must produce nothing."""
    failures = 0
    fixture_dirs = sorted(
        d
        for d in glob.glob(os.path.join(fixtures_root, "*"))
        if os.path.isdir(d) and os.path.exists(os.path.join(d, "fixture.toml"))
    )
    if not fixture_dirs:
        print(f"simlint: no fixtures under {fixtures_root}", file=sys.stderr)
        return 2
    for fixture in fixture_dirs:
        name = os.path.basename(fixture)
        try:
            cfg = load_config(os.path.join(fixture, "fixture.toml"))
        except ConfigError as e:
            print(f"[FAIL] {name}: {e}")
            failures += 1
            continue
        findings = run_lint(fixture, cfg, None, set(FAMILIES))
        # Findings anchored at non-source paths (e.g. config-level ID-STALE)
        # are declared in fixture.toml under [[expect_extra]].
        expected: dict[str, set[str]] = {}
        for extra in cfg.get("expect_extra", []):
            expected.setdefault(extra["path"], set()).add(extra["rule"])
        for src in glob.glob(os.path.join(fixture, "**", "*"), recursive=True):
            if not src.endswith((".cpp", ".hpp", ".h")):
                continue
            rel = os.path.relpath(src, fixture).replace(os.sep, "/")
            with open(src, "r", encoding="utf-8") as fh:
                for line in fh:
                    m = EXPECT_RE.search(line)
                    if m:
                        expected.setdefault(rel, set()).add(m.group(1))
        got: dict[str, set[str]] = {}
        for f in findings:
            got.setdefault(f.path, set()).add(f.rule)
        ok = True
        for rel, rules in sorted(expected.items()):
            missing = rules - got.get(rel, set())
            for rule in sorted(missing):
                print(f"[FAIL] {name}: expected {rule} in {rel}, not reported")
                ok = False
        for rel, rules in sorted(got.items()):
            unexpected = rules - expected.get(rel, set())
            for rule in sorted(unexpected):
                detail = "; ".join(
                    f.render() for f in findings if f.path == rel and f.rule == rule
                )
                print(f"[FAIL] {name}: unexpected {rule} in {rel}: {detail}")
                ok = False
        if name == "clean" and findings:
            ok = False
        n_rules = sum(len(r) for r in expected.values())
        print(f"[{'ok' if ok else 'FAIL'}] fixture {name}: {n_rules} expected rule(s)")
        if not ok:
            failures += 1
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="simlint", description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=None, help="repository root (default: auto)")
    parser.add_argument("--config", default=None, help="path to simlint.toml")
    parser.add_argument(
        "-p",
        "--build-dir",
        default=None,
        help="build dir containing compile_commands.json",
    )
    parser.add_argument(
        "--families",
        default="DET,ITER,COV,ID,PERF,CONC,SCHEMA",
        help="comma-separated rule families to run "
        "(DET,ITER,COV,ID,PERF,CONC,SCHEMA)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the negative fixtures and verify every rule family fires",
    )
    args = parser.parse_args(argv)

    tool_dir = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.abspath(args.repo) if args.repo else os.path.dirname(os.path.dirname(tool_dir))

    if args.self_test:
        return self_test(os.path.join(tool_dir, "fixtures"))

    families = {f.strip().upper() for f in args.families.split(",") if f.strip()}
    unknown = families - FAMILIES
    if unknown:
        print(f"simlint: unknown families: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    config_path = args.config or os.path.join(tool_dir, "simlint.toml")
    try:
        cfg = load_config(config_path)
    except ConfigError as e:
        print(f"simlint: {e}", file=sys.stderr)
        return 2
    compdb = None
    if args.build_dir:
        compdb = os.path.join(args.build_dir, "compile_commands.json")
    elif os.path.exists(os.path.join(repo, "build", "compile_commands.json")):
        compdb = os.path.join(repo, "build", "compile_commands.json")

    findings = run_lint(repo, cfg, compdb, families)
    for f in findings:
        print(f.render())
    print(
        f"simlint: {len(findings)} finding(s) across families "
        f"{','.join(sorted(families))}",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
