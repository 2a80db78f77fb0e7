"""Run the tier-1 suite under a line tracer and log the source lines of
`src/azqsl` that no test executes.

From the root of a checkout:

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

The arguments default to tier-1's `-q --continue-on-collection-errors`.
The tracer uses the standard library alone: `sys.settrace`, and
`threading.settrace` for the threads a test starts, record the lines run
in files under `src/azqsl`. A module's executable lines are those of its
code objects' `co_lines()`. Per module, the script prints how many
executable lines never ran and which. A line that only a subprocess runs
(`python -m azqsl`, `__main__.py`) counts as never run.

It logs and compares nothing: the exit status is pytest's.
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "azqsl"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]

executed: dict[str, set[int]] = defaultdict(set)
_in_package: dict[str, str | None] = {}  # code filename -> its package path, or None


def _package_path(filename: str) -> str | None:
    if filename not in _in_package:
        path = Path(filename).resolve()
        _in_package[filename] = str(path) if path.parent == PACKAGE else None
    return _in_package[filename]


def _trace(frame, event, arg):
    """The global trace function: follow a frame only in package code."""
    path = _package_path(frame.f_code.co_filename)
    if path is None:
        return None
    lines = executed[path]
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object that compiling the module yields."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _spans(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - executed[str(path.resolve())])
        total += len(missed)
        where = f": {_spans(missed)}" if missed else ""
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines never run{where}")
    print(f"total: {total} lines never run")


def main(args: list[str]) -> int:
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        status = pytest.main(args or TIER1_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report()
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
