"""Every fixture's CLI output, byte for byte, against a recorded copy.

``golden_outputs.json`` maps each command line to the stdout, stderr and
exit code it produced when the file was written. The commands cover every
fixture through ``info`` and both ``place`` modes in every format, plus
``certify``, ``oracle`` (computed and given sensors, sampled output gains,
and a trial count past the oracle's batch size), ``minimize`` and each
``export-dot`` stage (the placement and trace stages in both modes), so a
refactor that changes any emitted byte fails here, not only a rerun of the
same version (``test_byte_identical_reruns``).

Regenerate the file after a deliberate output change with
``PYTHONPATH=src python tests/test_golden_outputs.py --write`` from the
repository root. It prints how many recorded commands it changed, added
and dropped, then names each changed one, so an output-preserving change
shows ``0 changed`` in one line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from strucsense.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
FIXTURES = sorted(p.name for p in (REPO_ROOT / "fixtures").iterdir() if p.suffix in (".inp", ".json"))


def commands() -> list:
    """Argument vectors, paths relative to the repository root."""
    out = []
    for name in FIXTURES:
        path = f"fixtures/{name}"
        for fmt in ("json", "csv", "text"):
            out.append(["info", path, "--format", fmt])
            out.append(["place", path, "--format", fmt])
            out.append(["place", path, "--mode", "tree", "--format", fmt])
        for fmt in ("json", "text"):
            out.append(["certify", path, "--sensors", "0,1", "--format", fmt])
        out.append(["oracle", path, "--trials", "5"])
        out.append(["oracle", path, "--sensors", "0,1", "--trials", "5"])
        out.append(["oracle", path, "--trials", "16000"])  # more than one batch of trials on every fixture
        out.append(["oracle", path, "--c-mode", "sampled", "--trials", "5"])
        out.append(["minimize", path])
        for stage in ("graph", "tree", "placement", "trace"):
            out.append(["export-dot", path, "--stage", stage])
        for stage in ("placement", "trace"):
            out.append(["export-dot", path, "--stage", stage, "--mode", "tree"])
    return out


def run(argv: list) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_output_matches_golden(golden, argv, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden_outputs.py --write")
    os.chdir(REPO_ROOT)
    before = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    record = {" ".join(argv): run(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    changed = sorted(key for key in record.keys() & before.keys() if record[key] != before[key])
    print(f"{len(changed)} changed, {len(record.keys() - before.keys())} added, "
          f"{len(before.keys() - record.keys())} dropped")
    for key in changed:
        print(f"changed: {key}")
