"""Line-pass gate: run tier-1 once under `sys.settrace` and name every
executable line of ``src/gaskit`` that no test ran.

    python tests/linepass.py [extra pytest arguments]

Executable lines are those of each module's code objects (`co_lines`), less
docstrings.  A line may stay unrun only if ``tests/unrun_lines.txt`` lists
it, one ``file: stripped source  # reason`` entry per line, matched by text
rather than by line number.  Exit 1 names each unrun line that is not
listed, and each listed entry that no longer names an unrun line, so the
list only shrinks; exit 1 also when a test fails.  Lines run by a child
process (the CLI subprocess tests, `sweep --jobs`) are not seen.  Line
events differ between Python versions; the list is kept for 3.11.  Pytest's
name collection skips this file, whose name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "gaskit"
ALLOWED = Path(__file__).resolve().parent / "unrun_lines.txt"


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that carry bytecode, less its docstrings."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def allowed_entries() -> set[tuple[str, str]]:
    """(file name, stripped source) of each entry in the list."""
    entries = set()
    for raw in ALLOWED.read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            name, _, rest = raw.partition(": ")
            entries.add((name, rest.rsplit("  # ", 1)[0].strip()))
    return entries


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            return None
        hit[filename].add(frame.f_lineno)
        return local

    # the tests' child processes import gaskit from src/ as tier-1's do
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    sys.path.insert(0, str(SRC))
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    unrun = []  # (file name, line number, stripped source)
    for filename, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for lineno in sorted(executable_lines(path) - hit[filename]):
            unrun.append((path.name, lineno, text[lineno - 1].strip()))
    allowed = allowed_entries()
    unlisted = [(name, lineno, source) for name, lineno, source in unrun
                if (name, source) not in allowed]
    stale = sorted(allowed - {(name, source) for name, _, source in unrun})
    for name, lineno, source in unlisted:
        print(f"unrun: src/gaskit/{name}:{lineno}: {source}")
    for name, source in stale:
        print(f"listed but not an unrun line (delete the entry): {name}: {source}")
    print(f"linepass: {len(unrun)} unrun lines, {len(unlisted)} unlisted, "
          f"{len(stale)} stale entries")
    if status != 0:
        print(f"linepass: the tests exited {status}")
    return 1 if unlisted or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
