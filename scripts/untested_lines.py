#!/usr/bin/env python3
"""The lines of ``src/strucsense`` that compile to code and that no test ran.

    PYTHONPATH=src python scripts/untested_lines.py [PYTEST_ARGS]

Runs pytest in this process, with ``PYTEST_ARGS`` as given (pytest's own
defaults when there are none), under a ``sys.settrace`` hook that records
only frames whose code lives in ``src/strucsense/``. Then it prints
``src/strucsense/<file>:<line>: <source>`` for each line that a code object
of the package maps to (``co_lines``, nested code objects included) and
that no traced frame ran, followed by a total. pytest's own report goes to
stderr; the script exits with pytest's exit code.

Only this process is traced: lines run only by child processes are listed
too, e.g. those the console-script tests reach through a ``strucsense``
subprocess. The hook is set before pytest imports the package, so its
module-level lines count as run.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "strucsense"


def code_lines(path: Path) -> set:
    """Line numbers of every instruction in the file's code objects, nested ones included."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for (_, _, line) in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list) -> int:
    import pytest

    ran: dict = {}  # resolved file path -> line numbers run
    ours: dict = {}  # a code object's file name as given -> its set in ``ran``, or None outside the package

    def lines_of(filename: str):
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = ran.setdefault(path, set()) if path.parent == SRC else None
        return ours[filename]

    # one local tracer for every frame: a closure made per call would be cyclic garbage, which tests count
    def local(frame, event, arg):
        if event == "line":
            ours[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        seen = lines_of(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)  # the call itself: the line of ``def`` or of the first decorator
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        expected = code_lines(path)
        missed = sorted(expected - ran.get(path, set()))
        total, unrun = total + len(expected), unrun + len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} lines that compile to code were not run")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
