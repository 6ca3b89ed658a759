#!/usr/bin/env python3
"""Median calibrated wall time of each pipeline stage on EPANET INP or edge-list JSON files, one JSON line per input.

    PYTHONPATH=src python scripts/stage_times.py NET.inp GRAPH.json [...]

Each stage's inputs are built once; then each of ``REPEATS`` rounds runs
every stage twice in a row, untimed and then timed, with the cyclic garbage
collector paused as ``strucsense.cli.main`` pauses it, and each stage is
reported as its median in calibrated milliseconds. The untimed call leaves
every stage as warm as any other: timed once each, the first stage of a kind
in a round was charged the cold caches the stages before it had left.
perfbench's calibration kernel (``perfbench/calibrate.py``) is sampled
before and after every round, and the round's times are scaled by
``calibrate.scale`` of the two samples' mean: they read as milliseconds on a
machine where the kernel takes its nominal time, so two processes on a
shared machine whose cores drift compare. ``kernel_ms`` is the median raw
kernel sample. The stages of an INP file:

- ``parse_inp``, ``state_graph``, ``labels`` (``structured_state_labels``);
- ``check_preconditions``, the stage behind ``info``'s roles and cycles;
- ``paper``: spanning forest, leaf placement and output pattern, the stages
  the paper's time bound covers, and each of them alone: ``forest``
  (``spanning_tree_dfs``), ``leaves`` (``place_cyclic``) and ``output``
  (``build_output_pattern``);
- ``certificate``: ``PipelineRun(g, given=p).certificate`` for the leaf
  placement ``p``, the closed runs on A and Abar and their verdict, as
  ``place`` builds them;
- ``counts`` (``sensor_count_report``);
- ``place_cmd`` and ``info_cmd``: the whole ``place`` and ``info`` commands
  through ``cli.main`` with ``--format json``, their output captured in
  memory (a placement the certificate refuses writes its report to stderr
  instead, and that is timed too);
- ``json_output``: the median over rounds of ``place_cmd`` less the stages
  it runs in the same round, ``PLACE_STAGES``: ``parse_inp``,
  ``state_graph``, ``labels``, ``paper``, ``certificate`` and ``counts``.
  That leaves argument parsing, reading the file, the payload and its JSON
  text, less the output pattern's build: ``paper`` times it and ``place``
  does not run it.

A file ending in ``.json`` is an edge list, as ``load_input`` reads one, and
has the stages of the exhaustive search:

- ``parse_edge_list`` and ``exhaustive_min_sensors``;
- ``minimize_cmd`` and ``oracle_cmd``: the whole ``minimize`` command, and
  ``oracle`` (100 trials) with ``--sensors`` set to the search's first
  witness, through ``cli.main``, their output captured in memory.

Only public library functions are called. Pointing ``PYTHONPATH`` at
another checkout's ``src`` times that checkout, so two versions can be
compared stage by stage.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import statistics
import sys
import time
from pathlib import Path

from strucsense import cli
from strucsense.netgraph import check_preconditions
from strucsense.oracle import exhaustive_min_sensors
from strucsense.placement import PipelineRun, build_output_pattern, place_cyclic, sensor_count_report
from strucsense.spanning import spanning_tree_dfs
from strucsense.wdn import parse_edge_list, parse_inp, state_graph, structured_state_labels

REPEATS = 21  # timed rounds per input; each round runs every stage once untimed, then once timed
# the benchmark's kernel, loaded from its file so the script needs no perfbench package on the path
_spec = importlib.util.spec_from_file_location(
    "calibrate", Path(__file__).resolve().parent.parent / "perfbench" / "calibrate.py")
calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate)
# the stages ``place`` runs, which ``json_output`` leaves out of ``place_cmd`` round by round
PLACE_STAGES = ("parse_inp", "state_graph", "labels", "paper", "certificate", "counts")


def _command(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)


def _paper(g):
    t = spanning_tree_dfs(g)
    p = place_cyclic(g, t)
    return t, p, build_output_pattern(p, g.n)


def _inp_stages(path: str, text: str) -> tuple:
    """States and the stages of an INP file."""
    net = parse_inp(text)
    g = state_graph(net)
    t, p, _ = _paper(g)
    return g.n, {
        "parse_inp": lambda: parse_inp(text),
        "state_graph": lambda: state_graph(net),
        "labels": lambda: structured_state_labels(net),
        "check_preconditions": lambda: check_preconditions(g),
        "paper": lambda: _paper(g),
        "forest": lambda: spanning_tree_dfs(g),
        "leaves": lambda: place_cyclic(g, t),
        "output": lambda: build_output_pattern(p, g.n),
        "certificate": lambda: PipelineRun(g, given=p).certificate,
        "counts": lambda: sensor_count_report(g, t, p),
        "place_cmd": lambda: _command(["place", path, "--format", "json"]),
        "info_cmd": lambda: _command(["info", path, "--format", "json"]),
    }


def _edge_list_stages(path: str, text: str) -> tuple:
    """States and the stages of an edge-list JSON file."""
    g = parse_edge_list(text)
    witness = ",".join(map(str, exhaustive_min_sensors(g).witnesses[0]))
    return g.n, {
        "parse_edge_list": lambda: parse_edge_list(text),
        "exhaustive_min_sensors": lambda: exhaustive_min_sensors(g),
        "minimize_cmd": lambda: _command(["minimize", path]),
        "oracle_cmd": lambda: _command(["oracle", path, "--sensors", witness]),
    }


def stage_times(path: str) -> dict:
    """Median calibrated milliseconds per stage on one input file, and the median kernel sample."""
    text = Path(path).read_text()
    is_inp = not path.endswith(".json")
    states, stages = (_inp_stages if is_inp else _edge_list_stages)(path, text)
    row = {"path": path, "states": states}
    times = {name: [] for name in stages}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel = [calibrate.sample()]  # each sample closes one round and opens the next
        for _ in range(REPEATS):  # one run of every stage per round, so drift in core speed hits all alike
            elapsed = {}
            for name, fn in stages.items():
                fn()  # untimed, so the timed call finds the stage's code and data warm
                start = time.perf_counter()
                fn()
                elapsed[name] = time.perf_counter() - start
            kernel.append(calibrate.sample())
            factor = calibrate.scale((kernel[-2] + kernel[-1]) / 2)
            for name, seconds in elapsed.items():
                times[name].append(seconds * factor)
    finally:
        if gc_was_enabled:
            gc.enable()
    row.update((name, round(statistics.median(samples) * 1e3, 3)) for name, samples in times.items())
    row["kernel_ms"] = round(statistics.median(kernel) * 1e3, 3)
    if is_inp:
        rest = [cmd - sum(times[name][r] for name in PLACE_STAGES) for r, cmd in enumerate(times["place_cmd"])]
        row["json_output"] = round(statistics.median(rest) * 1e3, 3)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", metavar="PATH")
    args = parser.parse_args(argv)
    for path in args.paths:
        sys.stdout.write(json.dumps(stage_times(path)) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
