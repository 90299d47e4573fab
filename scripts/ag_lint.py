#!/usr/bin/env python3
"""ag-lint: repo-specific determinism / hot-path discipline linter.

Enforces the written-but-previously-unchecked rules of this simulator
(see ARCHITECTURE.md "Correctness tooling"):

  unordered    no std::unordered_map/set/multimap/multiset anywhere in
               src/ or bench/ — iteration order leaks into results (PR 4
               had to canonicalize it); use net::NodeTable / net::DenseMap
               or an ordered container.
  determinism  no rand()/srand()/std::random_device, no time()/clock()/
               gettimeofday()/clock_gettime(), and no std::chrono wall
               clocks in simulation code — all randomness flows from the
               per-run sim::RngFactory streams and all time from the sim
               clock. Harness-level wall-clock *measurement* must be
               annotated (see scale_smoke.cpp).
  rawalloc     no raw new/delete/malloc/free in the phy/mac hot path or
               in net/data_plane.* — per-packet allocation goes through
               the pooled PacketPtr path. (The pool itself is the
               allocator and carries in-tree allow annotations.)
  category     every sim::Simulator::schedule_at/schedule_after call,
               every make_unique<sim::Timer>(...) and every *timer_{...}
               member construction must pass an explicit
               sim::EventCategory (or forward a `category`/`category_`
               parameter) so the event-mix accounting never silently
               lumps new event types under "other".
  env          AG_* environment knobs are read in exactly one place,
               src/sim/env.h — getenv/setenv anywhere else in src/ or
               bench/ must be annotated (escape-hatch A/B benches) or
               moved behind an env.h helper.

Suppression (reason is mandatory):

  // ag-lint: allow(<rule>, <reason>)        this line or the next line
  // ag-lint: allow-file(<rule>, <reason>)   whole file

Usage:
  ag_lint.py [--root DIR] [files...]   lint src/ + bench/ (or just files)
  ag_lint.py --self-test               run the fixture suite under
                                       tests/lint/fixtures and verify
                                       every rule fires (and that allow
                                       annotations suppress)

Exit codes: 0 clean, 1 findings (printed as file:line: [rule] message),
2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# --------------------------------------------------------------------------
# findings & annotations
# --------------------------------------------------------------------------

RULES = ("unordered", "determinism", "rawalloc", "category", "env")

ALLOW_RE = re.compile(
    r"ag-lint:\s*(allow|allow-file)\(\s*([a-z-]+)\s*(?:,\s*([^)]*\S)\s*)?\)"
)


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self, root: str) -> str:
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


class Annotations:
    """Parsed ag-lint allow annotations for one file."""

    def __init__(self) -> None:
        self.file_rules: set[str] = set()
        self.line_rules: dict[int, set[str]] = {}  # line -> rules allowed there
        self.errors: list[tuple[int, str]] = []

    def allows(self, rule: str, line: int) -> bool:
        if rule in self.file_rules:
            return True
        return rule in self.line_rules.get(line, set())


def parse_annotations(lines: list[str]) -> Annotations:
    ann = Annotations()
    for i, text in enumerate(lines, start=1):
        for m in ALLOW_RE.finditer(text):
            kind, rule, reason = m.group(1), m.group(2), m.group(3)
            if rule not in RULES:
                ann.errors.append((i, f"unknown rule {rule!r} in ag-lint annotation"))
                continue
            if not reason:
                ann.errors.append(
                    (i, f"ag-lint allow({rule}) missing a reason — say why")
                )
                continue
            if kind == "allow-file":
                ann.file_rules.add(rule)
            else:
                # An allow on its own (comment-only) line covers the next
                # line; an allow trailing code covers its own line.
                target = i + 1 if text.lstrip().startswith("//") else i
                ann.line_rules.setdefault(i, set()).add(rule)
                ann.line_rules.setdefault(target, set()).add(rule)
    return ann


# --------------------------------------------------------------------------
# comment/string stripping (the regex engine's tokenizer)
# --------------------------------------------------------------------------


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Returns lines with comments, string and char literals blanked out
    (replaced by spaces so columns/line numbers are preserved)."""
    out: list[str] = []
    in_block = False
    in_raw = False
    raw_terminator = ""
    for text in lines:
        buf: list[str] = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if in_block:
                if text.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
                continue
            if in_raw:
                end = text.find(raw_terminator, i)
                if end == -1:
                    buf.append(" " * (n - i))
                    i = n
                else:
                    skip = end + len(raw_terminator)
                    buf.append(" " * (skip - i))
                    i = skip
                    in_raw = False
                continue
            if text.startswith("//", i):
                buf.append(" " * (n - i))
                break
            if text.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
                continue
            m = re.match(r'R"([^(]{0,16})\(', text[i:])
            if c == "R" and m:
                in_raw = True
                raw_terminator = ")" + m.group(1) + '"'
                buf.append(" " * m.end())
                i += m.end()
                continue
            if c in "\"'":
                quote = c
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == quote:
                        j += 1
                        break
                    j += 1
                buf.append(quote + " " * (j - i - 2) + quote if j - i >= 2 else c)
                i = j
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def balanced_span(code: list[str], line_idx: int, col: int, open_ch: str) -> str:
    """Returns the text of a balanced (...) or {...} starting at
    code[line_idx][col] == open_ch, spanning up to 40 lines."""
    close_ch = ")" if open_ch == "(" else "}"
    depth = 0
    parts: list[str] = []
    for li in range(line_idx, min(line_idx + 40, len(code))):
        text = code[li]
        start = col if li == line_idx else 0
        for ci in range(start, len(text)):
            ch = text[ci]
            parts.append(ch)
            if ch in "({[":
                depth += 1
            elif ch in ")}]":
                depth -= 1
                if depth == 0 and ch == close_ch:
                    return "".join(parts)
    return "".join(parts)  # unbalanced (truncated file): best effort


# --------------------------------------------------------------------------
# rules (regex engine)
# --------------------------------------------------------------------------

UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(map|set|multimap|multiset)\b")

DETERMINISM_RES = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"(?:\bstd\s*::\s*|(?<![\w.:>]))s?rand\s*\("), "rand()/srand()"),
    (
        re.compile(r"(?:\bstd\s*::\s*|(?<![\w.:>]))time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
        "time()",
    ),
    (re.compile(r"(?:\bstd\s*::\s*|(?<![\w.:>]))clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\b(clock_gettime|gettimeofday)\s*\("), "wall-clock syscall"),
    (
        re.compile(r"\bstd\s*::\s*chrono\s*::\s*(system|steady|high_resolution)_clock\b"),
        "std::chrono wall clock",
    ),
]

RAWALLOC_RES = [
    (re.compile(r"(?<!\w)new\b(?!\s*\()"), "raw new"),  # `new (place)` also new, see below
    (re.compile(r"(?<!\w)new\s*\("), "placement/raw new"),
    (re.compile(r"(?<![\w.:>=])delete\b"), "raw delete"),
    (re.compile(r"(?<![\w.:])(malloc|calloc|realloc|free)\s*\("), "C allocation"),
]

# `= delete;` (deleted members) and `= default;` are declarations, not
# allocation — drop them before the rawalloc patterns run.
DELETED_FN_RE = re.compile(r"=\s*delete\s*(;|,)")

SCHEDULE_RE = re.compile(r"\bschedule_(?:at|after)\s*(\()")
TIMER_MAKE_RE = re.compile(r"make_unique\s*<\s*(?:sim\s*::\s*)?Timer\s*>\s*(\()")
TIMER_MEMBER_RE = re.compile(r"\b\w*timer_?\s*(\{)")
CATEGORY_OK_RE = re.compile(r"EventCategory\s*::|(?<![\w.])category_?\b")

GETENV_RE = re.compile(
    r"(?:\bstd\s*::\s*|(?<![\w.:]))(getenv|setenv|unsetenv|putenv)\s*\("
)


def is_hot_path(rel: str) -> bool:
    parts = rel.replace("\\", "/").split("/")
    if "phy" in parts or "mac" in parts:
        return True
    return os.path.basename(rel).startswith("data_plane")


def is_env_home(rel: str) -> bool:
    return rel.replace("\\", "/").endswith("sim/env.h")


def lint_file(path: str, rel: str, raw_lines: list[str]) -> list[Finding]:
    ann = parse_annotations(raw_lines)
    code = strip_comments_and_strings(raw_lines)
    findings: list[Finding] = []
    for line, msg in ann.errors:
        # Annotation misuse is its own (non-suppressible) finding type.
        findings.append(Finding(path, line, "annotation", msg))

    def add(line: int, rule: str, message: str) -> None:
        if not ann.allows(rule, line):
            findings.append(Finding(path, line, rule, message))

    for i, text in enumerate(code, start=1):
        # unordered -----------------------------------------------------
        for m in UNORDERED_RE.finditer(text):
            add(
                i,
                "unordered",
                f"std::unordered_{m.group(1)}: iteration order leaks into "
                "results — use net::NodeTable/net::DenseMap or an ordered "
                "container (or annotate a reference backend)",
            )
        # determinism ---------------------------------------------------
        for pattern, what in DETERMINISM_RES:
            if pattern.search(text):
                add(
                    i,
                    "determinism",
                    f"{what}: simulation code draws randomness from "
                    "sim::RngFactory streams and time from the sim clock only",
                )
        # rawalloc ------------------------------------------------------
        if is_hot_path(rel):
            cleaned = DELETED_FN_RE.sub("         ", text)
            for pattern, what in RAWALLOC_RES:
                if pattern.search(cleaned):
                    add(
                        i,
                        "rawalloc",
                        f"{what} in the phy/mac hot path — allocate through "
                        "net::PacketPool / owned containers (pool internals "
                        "carry in-tree allow annotations)",
                    )
                    break  # one finding per line is enough
        # category ------------------------------------------------------
        for pattern, what in (
            (SCHEDULE_RE, "schedule call"),
            (TIMER_MAKE_RE, "Timer construction"),
            (TIMER_MEMBER_RE, "timer member construction"),
        ):
            for m in pattern.finditer(text):
                span = balanced_span(code, i - 1, m.start(1), m.group(1))
                if not CATEGORY_OK_RE.search(span):
                    add(
                        i,
                        "category",
                        f"{what} without an explicit sim::EventCategory — "
                        "pass one (or forward a `category` parameter) so "
                        "event-mix accounting stays meaningful",
                    )
        # env -----------------------------------------------------------
        if not is_env_home(rel):
            for m in GETENV_RE.finditer(text):
                add(
                    i,
                    "env",
                    f"{m.group(1)}() outside src/sim/env.h — AG_* knobs are "
                    "parsed in exactly one place; add a helper there or "
                    "annotate an A/B bench",
                )
    return findings


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

CXX_EXTS = (".cpp", ".cc", ".cxx", ".h", ".hpp")


def collect_files(root: str) -> list[str]:
    files: list[str] = []
    for sub in ("src", "bench"):
        base = os.path.join(root, sub)
        for dirpath, _dirs, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(CXX_EXTS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def lint_paths(root: str, paths: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for path in paths:
        rel = os.path.relpath(path, root)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw_lines = f.read().splitlines()
        except OSError as e:
            print(f"ag-lint: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        findings.extend(lint_file(path, rel, raw_lines))
    return findings


# --------------------------------------------------------------------------
# self-test over the fixture suite
# --------------------------------------------------------------------------

# fixture path (relative to tests/lint/fixtures) -> set of rules that MUST
# fire, exactly. Clean/suppressed fixtures expect the empty set.
FIXTURE_EXPECTATIONS = {
    "bad_unordered.cc": {"unordered"},
    "bad_determinism.cc": {"determinism"},
    "mac/bad_rawalloc.cc": {"rawalloc"},
    "bad_category.cc": {"category"},
    "bad_env.cc": {"env"},
    "allowed_suppressions.cc": set(),
    "mac/clean_hot_path.cc": set(),
    "bad_annotation_no_reason.cc": {"annotation", "unordered"},
}


def self_test(root: str) -> int:
    fixtures = os.path.join(root, "tests", "lint", "fixtures")
    failures = 0
    for rel, expected in sorted(FIXTURE_EXPECTATIONS.items()):
        path = os.path.join(fixtures, rel)
        if not os.path.exists(path):
            print(f"SELF-TEST FAIL: missing fixture {rel}")
            failures += 1
            continue
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        result = lint_file(path, rel, raw_lines)
        fired = {f.rule for f in result}
        if fired != expected:
            print(
                f"SELF-TEST FAIL: {rel}: expected rules {sorted(expected)}, "
                f"got {sorted(fired)}"
            )
            for f in result:
                print("    " + f.render(fixtures))
            failures += 1
        else:
            print(f"self-test ok: {rel} -> {sorted(fired) or 'clean'}")
    # The live tree must be clean too — the self-test doubles as the gate
    # that the in-tree annotations actually suppress.
    live = lint_paths(root, collect_files(root))
    if live:
        print(f"SELF-TEST FAIL: live tree has {len(live)} finding(s):")
        for f in live:
            print("    " + f.render(root))
        failures += 1
    else:
        print("self-test ok: live src/ + bench/ tree clean")
    if failures:
        print(f"{failures} self-test failure(s)")
        return 1
    print("ag-lint self-test passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="files to lint (default: src/ + bench/)")
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of scripts/)",
    )
    parser.add_argument("--self-test", action="store_true", help="run the fixture suite")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root)

    paths = [os.path.abspath(p) for p in args.files] or collect_files(root)
    findings = lint_paths(root, paths)
    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f.render(root))
    if findings:
        print(f"ag-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
