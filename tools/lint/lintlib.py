"""Shared plumbing for the pktbuf project-invariant linters.

The linters operate on a lightweight lexical view of the C++ sources:
``strip_code()`` replaces comments and string/char literals with
spaces (preserving byte offsets and line numbers exactly, so every
finding can be reported as file:line), while ``comment_text()``
exposes the stripped comments for the allowlist annotations
(``// ser: derived``, ``// det: allow(...)``).

Each linter ships a ``--self-test`` that runs it over violating and
clean fixtures and asserts detection (and that the clean fixture
passes), mirroring ``tools/perf_gate.py --self-test``.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field

# ----------------------------------------------------------------- findings


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def report(findings: list[Finding], tool: str) -> int:
    """Print findings and return the process exit status."""
    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f.render(), file=sys.stderr)
    if findings:
        print(f"{tool}: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"{tool}: clean")
    return 0


# ------------------------------------------------------------ file walking

CXX_EXTENSIONS = (".hh", ".cc", ".hpp", ".cpp", ".h")


def cxx_files(roots: list[str]) -> list[str]:
    """All C++ sources under the given files/directories, sorted."""
    out = []
    for root in roots:
        if os.path.isfile(root):
            out.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


# ------------------------------------------------------- lexical stripping


@dataclass
class Stripped:
    """A source file with comments/literals blanked, offsets preserved."""

    path: str
    raw: str
    code: str                     # comments + string/char literals -> spaces
    comments: dict[int, str] = field(default_factory=dict)  # line -> text

    def line_of(self, offset: int) -> int:
        return self.raw.count("\n", 0, offset) + 1


def strip_code(path: str, text: str) -> Stripped:
    """Blank comments and literals out of ``text``, keeping offsets.

    Newlines inside block comments and raw strings are preserved so
    line numbers in the stripped view match the original file.
    Comment text is collected per starting line for the annotation
    allowlists.
    """
    n = len(text)
    out = list(text)
    comments: dict[int, str] = {}
    i = 0
    line = 1

    def blank(start: int, end: int) -> None:
        for k in range(start, end):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            comments.setdefault(line, "")
            comments[line] += text[i:end]
            blank(i, end)
            i = end
            continue
        if c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            comments.setdefault(line, "")
            comments[line] += text[i:end]
            line += text.count("\n", i, end)
            blank(i, end)
            i = end
            continue
        if c == '"' or c == "'":
            # Raw string literal R"delim( ... )delim"
            if c == '"' and i >= 1 and text[i - 1] == "R":
                m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                if m:
                    delim = m.group(1)
                    close = text.find(")" + delim + '"', i)
                    end = n if close == -1 else close + len(delim) + 2
                    line += text.count("\n", i, end)
                    blank(i + 1, end - 1)
                    i = end
                    continue
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c:
                    break
                j += 1
            end = min(j + 1, n)
            blank(i + 1, end - 1)
            i = end
            continue
        i += 1
    return Stripped(path=path, raw=text, code="".join(out),
                    comments=comments)


def read_stripped(path: str) -> Stripped:
    with open(path, encoding="utf-8", errors="replace") as f:
        return strip_code(path, f.read())


def find_matching(code: str, open_pos: int,
                  open_ch: str = "{", close_ch: str = "}") -> int:
    """Offset just past the brace matching ``code[open_pos]``, or -1."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == open_ch:
            depth += 1
        elif code[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` at zero paren/brace/bracket depth."""
    parts = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


# ------------------------------------------------------------- self-tests


def run_self_test(tool: str,
                  cases: list[tuple[str, bool | int, int]]) -> int:
    """Run (description, expect, actual_findings) cases.

    ``actual_findings`` is the finding count the linter produced for
    the fixture.  ``expect`` is True for a clean fixture (zero
    findings), False for a violating one (at least one), or an int
    for a pinned exact count.
    """
    failures = 0
    for desc, expect, count in cases:
        if isinstance(expect, bool):
            ok = (count == 0) if expect else (count > 0)
            want = "clean" if expect else "detected"
        else:
            ok = count == expect
            want = f"exactly {expect}"
        status = "ok" if ok else "FAIL"
        print(f"{tool} --self-test: {desc}: {status} "
              f"({count} finding(s), expected {want})")
        if not ok:
            failures += 1
    if failures:
        print(f"{tool} --self-test: {failures} case(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"{tool} --self-test: all cases passed")
    return 0
