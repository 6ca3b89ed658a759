"""CLI output at L-town size, byte for byte, against recorded digests.

The goldens in ``golden_outputs.json`` cover the small fixtures only. Here
four synthetic networks of L-town's size, ``cyclic_inp_text(782, 124, seed)``
for seeds 0 to 3, run through ``info`` and ``place`` in every format, the
tree rule (which refuses, the inputs being cyclic), ``certify``, every
``export-dot`` stage, and ``oracle`` and ``minimize`` (which refuse on
their state caps). Seeds 0 to 2 certify; seed 3 refuses, since A colours
and Abar does not. A tree of the same scale, ``tree_inp_text(847)`` (1693
states), pins the tree rule: ``place --mode tree`` in every format, the
``placement`` and ``trace`` stages of ``export-dot --mode tree``, and
``info``. ``golden_digests.json`` maps each command line to the sha256 of
its stdout, the sha256 of its stderr and its exit code.

The commands run in a temporary directory holding ``seed<k>.inp`` and
``tree847.inp``, so the
path ``info`` prints is the same wherever the suite runs. Regenerate the
file after a deliberate output change with
``PYTHONPATH=src python tests/test_golden_digests.py --write`` from the
repository root; it prints how many recorded commands it changed, added
and dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # run as a script: make generators importable

from generators import cyclic_inp_text, tree_inp_text  # noqa: E402
from strucsense.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SEEDS = range(4)
TREE = "tree847.inp"


def write_inputs(directory: Path) -> None:
    for seed in SEEDS:
        (directory / f"seed{seed}.inp").write_text(cyclic_inp_text(782, 124, seed))
    (directory / TREE).write_text(tree_inp_text(847))


def commands() -> list:
    """Argument vectors, paths relative to the directory ``write_inputs`` filled."""
    out = []
    for seed in SEEDS:
        path = f"seed{seed}.inp"
        for fmt in ("json", "csv", "text"):
            out.append(["info", path, "--format", fmt])
            out.append(["place", path, "--format", fmt])
        out.append(["place", path, "--mode", "tree"])
        for fmt in ("json", "text"):
            out.append(["certify", path, "--sensors", "0,1", "--format", fmt])
        for stage in ("graph", "tree", "placement", "trace"):
            out.append(["export-dot", path, "--stage", stage])
        out.append(["oracle", path])
        out.append(["minimize", path])
    out += [["place", TREE, "--mode", "tree", "--format", fmt] for fmt in ("json", "csv", "text")]
    out += [["export-dot", TREE, "--stage", stage, "--mode", "tree"] for stage in ("placement", "trace")]
    out.append(["info", TREE, "--format", "json"])
    return out


def digest(argv: list) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.getvalue().encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("digests")
    write_inputs(directory)
    return directory


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_output_matches_digest(golden, inputs, argv, monkeypatch):
    monkeypatch.chdir(inputs)
    assert digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden_digests.py --write")
    before = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        os.chdir(directory)
        record = {" ".join(argv): digest(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    changed = sorted(key for key in record.keys() & before.keys() if record[key] != before[key])
    print(f"{len(changed)} changed, {len(record.keys() - before.keys())} added, "
          f"{len(before.keys() - record.keys())} dropped")
    for key in changed:
        print(f"changed: {key}")
