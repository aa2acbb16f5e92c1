#!/usr/bin/env python3
"""Docs gate: keep ARCHITECTURE.md and the rest of the handbook honest.

Four checks, run by the CI `docs` job (no dependencies beyond the
standard library):

1. **Markdown links.** Every relative link in the repo's tracked *.md
   files must resolve to an existing file (external http(s)/mailto
   links and pure #anchors are skipped; a #fragment on a relative link
   is checked for file existence only).

2. **Knob-table coverage, both ways.** Every field of
   `struct loop_options` (parsed from
   src/op2/include/op2/loop_options.hpp) and every `OP2HPX_*`
   environment variable that the sources' code references must be
   mentioned in ARCHITECTURE.md's "Knob table" section. Conversely,
   every `loop_options::X` the table names must be a field of the
   struct, and every `OP2HPX_*` name it mentions must be referenced by
   a source file or a CMakeLists.txt. Adding a knob without documenting
   it, or deleting one and leaving its row behind, fails this script,
   and therefore CI.

3. **CI knob legs.** Every `OP2HPX_*` variable a workflow under
   .github/workflows sets (`NAME: value` in an env block, or
   `NAME=value`) must be referenced by a source file or a
   CMakeLists.txt. A leg left behind for a deleted knob would otherwise
   run the default configuration and pass silently.

4. **Markdown mentions in the sources.** Every `*.md` file that a file
   under src/, bench/, examples/ or tests/ names — comments included —
   must match a markdown file of the repo (the name, or a path, that is
   a suffix of the file's repo-relative path). A source pointing its
   reader at a handbook page that does not exist fails this script.

In checks 2 and 3 a name counts as referenced only outside comments
(C++ `//` and `/* */`, CMake `#`): a comment that outlives a knob's
code does not keep the knob's row or CI leg alive.

Exit status: 0 clean, 1 with findings (each printed on its own line).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ARCHITECTURE = REPO / "ARCHITECTURE.md"
WORKFLOWS = REPO / ".github" / "workflows"
LOOP_OPTIONS = REPO / "src" / "op2" / "include" / "op2" / "loop_options.hpp"

# Build trees and VCS metadata hold no files of ours.
SKIP_DIRS = {"build", ".git", "build-tsan", "build-asan", ".bench_build",
             ".bench_out"}


def repo_files(pattern: str) -> list[Path]:
    return [p for p in sorted(REPO.rglob(pattern))
            if not any(part in SKIP_DIRS for part in p.parts)]


# Directories whose *.md / sources are ours to check. ISSUE.md and the
# paper-metadata files are driver-managed inputs, not handbook pages.
DOC_FILES = [
    p
    for p in sorted(REPO.rglob("*.md"))
    if not any(part in SKIP_DIRS for part in p.parts)
    and p.name not in {"ISSUE.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"}
]
SOURCE_DIRS = [REPO / "src", REPO / "bench", REPO / "examples",
               REPO / "tests"]
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ENV_RE = re.compile(r"\bOP2HPX_[A-Z_]+\b")
FIELD_REF_RE = re.compile(r"\bloop_options::(\w+)")
ENV_SET_RE = re.compile(r"\b(OP2HPX_[A-Z_]+)\s*[:=]")
MD_NAME_RE = re.compile(r"[\w./-]+\.md\b")
# Comments and string literals, scanned left to right so a comment
# marker inside a string (or a quote inside a comment) is not taken
# for one. Literals are kept: env var names live in them.
CPP_TOKEN_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'",
    re.DOTALL)
CMAKE_TOKEN_RE = re.compile(
    r"#\[(=*)\[.*?\]\1\]|#[^\n]*|\"(?:\\.|[^\"\\])*\"", re.DOTALL)


def strip_comments(text: str, token_re: re.Pattern) -> str:
    """`text` with every comment `token_re` finds blanked out."""
    return token_re.sub(
        lambda m: m.group(0) if m.group(0)[0] in "\"'" else " ", text)


def check_links() -> list[str]:
    problems = []
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        for m in LINK_RE.finditer(text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}")
    return problems


def loop_option_fields() -> list[str]:
    """Field names of struct loop_options, parsed from the header."""
    text = LOOP_OPTIONS.read_text(encoding="utf-8")
    m = re.search(r"struct loop_options \{(.*?)\n\};", text, re.DOTALL)
    if m is None:
        raise SystemExit(f"cannot find struct loop_options in {LOOP_OPTIONS}")
    body = m.group(1)
    fields = []
    for line in body.splitlines():
        line = line.strip()
        if line.startswith(("//", "///")) or not line:
            continue
        # A field declaration line: `<type...> name = default;` or
        # `<type...> name;` — take the identifier left of `=`/`;`.
        decl = re.match(r"[A-Za-z_][\w:<>,\s*&{}]*?(\w+)\s*(?:=[^;]*)?;", line)
        if decl:
            fields.append(decl.group(1))
    if not fields:
        raise SystemExit("parsed zero loop_options fields — parser broken?")
    return fields


def env_vars_in_sources() -> set[str]:
    found = set()
    for root in SOURCE_DIRS:
        for src in root.rglob("*"):
            if src.suffix not in SOURCE_SUFFIXES or not src.is_file():
                continue
            text = src.read_text(encoding="utf-8", errors="replace")
            found.update(ENV_RE.findall(strip_comments(text, CPP_TOKEN_RE)))
    return found


def env_vars_in_cmake() -> set[str]:
    found = set()
    for cmake in repo_files("CMakeLists.txt"):
        text = cmake.read_text(encoding="utf-8")
        found.update(ENV_RE.findall(strip_comments(text, CMAKE_TOKEN_RE)))
    return found


def knob_table_section() -> str:
    text = ARCHITECTURE.read_text(encoding="utf-8")
    m = re.search(r"^## Knob table$(.*?)(?=^## )", text,
                  re.DOTALL | re.MULTILINE)
    if m is None:
        raise SystemExit("ARCHITECTURE.md has no '## Knob table' section")
    return m.group(1)


def check_knob_table() -> list[str]:
    section = knob_table_section()
    fields = loop_option_fields()
    source_vars = env_vars_in_sources()
    problems = []
    for field in fields:
        if f"loop_options::{field}" not in section:
            problems.append(
                "ARCHITECTURE.md knob table: missing loop_options field "
                f"`loop_options::{field}` (declared in "
                "src/op2/include/op2/loop_options.hpp)")
    for var in sorted(source_vars):
        if var not in section:
            problems.append(
                f"ARCHITECTURE.md knob table: missing env var `{var}` "
                "(referenced in the sources)")
    for field in sorted(set(FIELD_REF_RE.findall(section)) - set(fields)):
        problems.append(
            f"ARCHITECTURE.md knob table: `loop_options::{field}` is not "
            "a field of struct loop_options (stale row?)")
    known_vars = source_vars | env_vars_in_cmake()
    for var in sorted(set(ENV_RE.findall(section)) - known_vars):
        problems.append(
            f"ARCHITECTURE.md knob table: `{var}` is referenced by no "
            "source file or CMakeLists.txt (stale row?)")
    return problems


def check_ci_env() -> list[str]:
    known_vars = env_vars_in_sources() | env_vars_in_cmake()
    problems = []
    for wf in sorted(WORKFLOWS.glob("*.yml")):
        text = wf.read_text(encoding="utf-8")
        for var in sorted(set(ENV_SET_RE.findall(text)) - known_vars):
            problems.append(
                f"{wf.relative_to(REPO)}: sets `{var}`, which no source "
                "file or CMakeLists.txt references (stale CI leg?)")
    return problems


def check_md_mentions() -> list[str]:
    markdown = [p.relative_to(REPO).as_posix() for p in repo_files("*.md")]
    problems = []
    for root in SOURCE_DIRS:
        for src in sorted(root.rglob("*")):
            if not src.is_file() or any(
                    part in SKIP_DIRS for part in src.relative_to(REPO).parts):
                continue
            text = src.read_text(encoding="utf-8", errors="replace")
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in MD_NAME_RE.findall(line):
                    # Relative prefixes (./, ../) locate, not name.
                    want = re.sub(r"^(\.{1,2}/)+", "", name)
                    if not any(md == want or md.endswith("/" + want)
                               for md in markdown):
                        problems.append(
                            f"{src.relative_to(REPO)}:{lineno}: names "
                            f"`{name}`, which matches no markdown file "
                            "of the repo")
    return problems


def main() -> int:
    problems = (check_links() + check_knob_table() + check_ci_env() +
                check_md_mentions())
    for p in problems:
        print(p)
    if problems:
        print(f"\ncheck_docs: {len(problems)} problem(s)")
        return 1
    print(f"check_docs: OK ({len(DOC_FILES)} markdown files, "
          f"{len(loop_option_fields())} loop_options fields, "
          f"{len(set(ENV_RE.findall(knob_table_section())))} OP2HPX_* "
          "names in the knob table)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
