"""Command-line interface: inspect, place, certify, sample, minimize, export, bench.

Inputs are either EPANET INP files (water networks, parsed for topology
only) or edge-list JSON files describing a symmetric state graph directly.
Every placement the CLI emits carries a true certificate; the paper's rule
fails to certify on some valid inputs, and ``place`` then refuses the
placement (exit code 2). Exit code 1 covers input and usage errors.

Set STRUCSENSE_LOG=info (or debug) for progress lines on stderr; any other
value, or none, keeps them off.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

from . import dot
from .netgraph import StateGraph, check_preconditions, cycle_count, to_pattern
from .oracle import exhaustive_min_sensors, sample_and_check
from .placement import PipelineRun, SensorPlacement
from .wdn import (
    ParseError,
    WdnNetwork,
    parse_edge_list,
    parse_inp,
    state_graph,
    structured_state_labels,
    write_incidence_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERT = 2
INPUT_ERRORS = (ParseError, ValueError, OSError)  # what an input can cause: reported with exit 1, never a traceback
BENCH_REPEATS = 5  # timed runs of the paper-timed stages per ``bench`` input; their median is reported
# a ``bench`` row's fields, in column order; the JSON rows carry them as keys
BENCH_COLUMNS = ("name", "state_nodes", "cycles", "extreme_nodes", "sensors", "elapsed_seconds")


class InputBundle(NamedTuple):
    """Everything downstream commands need, whatever the input format was; a water network keeps ``net``."""

    path: str
    graph: StateGraph
    labels: list
    net: WdnNetwork | None = None


def load_input(path: str) -> InputBundle:
    """Dispatch on file content: JSON edge list or EPANET INP."""
    text = Path(path).read_text()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        graph = parse_edge_list(text)
        return InputBundle(path, graph, [str(i) for i in range(graph.n)])
    net = parse_inp(text)
    return InputBundle(path, state_graph(net), structured_state_labels(net), net)


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, which ends in a newline, to ``out`` or else to stdout."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


_encode_scalar = json.JSONEncoder().encode  # C-accelerated for one scalar: escapes, float repr, NaN


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, without its pure-Python encoder.

    ``indent`` is a newline plus the enclosing level's spaces; dict keys are
    strings. A list of plain ints, or of equal-length lists of plain ints
    (traces, witnesses, components), is formatted in one C-level ``%`` pass,
    and a list of other scalars (labels) in one ``join`` over the encoder.
    """
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            raise TypeError("JSON output keys must be str")
        items = [_encode_scalar(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        return "{" + inner + sep.join(items) + indent + "}"
    if not isinstance(value, (list, tuple)):
        return _encode_scalar(value)
    if not value:
        return "[]"
    kinds = set(map(type, value))
    if kinds == {int}:
        return "[" + inner + sep.join(["%d"] * len(value)) % tuple(value) + indent + "]"
    if not any(issubclass(kind, (dict, list, tuple)) for kind in kinds):
        return "[" + inner + sep.join(map(_encode_scalar, value)) + indent + "]"
    if kinds <= {list, tuple} and len(widths := set(map(len, value))) == 1:
        flat = tuple(chain.from_iterable(value))
        if set(map(type, flat)) == {int}:
            deeper = inner + "  "
            row = "[" + deeper + ("," + deeper).join(["%d"] * widths.pop()) + inner + "]"
            return "[" + inner + sep.join([row] * len(value)) % flat + indent + "]"
    return "[" + inner + sep.join([_json_text(item, inner) for item in value]) + indent + "]"


def _dump_json(payload, out: str | None) -> None:
    _emit(_json_text(payload) + "\n", out)


def _emit_csv(rows, out: str | None) -> None:
    """Rows as CSV; ``csv.writer`` quotes a field holding a comma, a quote or a newline, e.g. a label."""
    import csv
    import io

    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _emit(text.getvalue(), out)


def _resolve_sensors(sensor_text: str, bundle: InputBundle) -> SensorPlacement:
    """Sensor tokens may be state indices or input labels, in order; SensorPlacement checks them."""
    by_label = {label: i for i, label in enumerate(bundle.labels)}
    measured = []
    for token in (t.strip() for t in sensor_text.split(",")):
        if not token:
            continue
        if token in by_label:
            measured.append(by_label[token])
        else:
            try:
                measured.append(int(token))
            except ValueError:
                raise ValueError(f"unknown sensor label {token!r}") from None
    return SensorPlacement(tuple(measured), bundle.graph.n, "given")


def cmd_info(args) -> int:
    bundle = load_input(args.path)
    pre = check_preconditions(bundle.graph)
    cls = pre.classification
    payload = {
        "path": bundle.path,
        "kind": "edge_list" if bundle.net is None else "wdn",
        "hydraulic_nodes": bundle.net.n_nodes if bundle.net else None,
        "links": bundle.net.n_links if bundle.net else None,
        "state_nodes": bundle.graph.n,
        "cycles": cycle_count(bundle.graph, pre.components),
        "extreme": [bundle.labels[i] for i in cls.extreme],
        "extreme_count": cls.n_e,
        "intersection": [bundle.labels[i] for i in cls.intersection],
        "intersection_count": cls.n_i,
        "preconditions": pre.as_dict(),
    }
    if args.dump_incidence:
        if bundle.net is None:
            raise ValueError("incidence export needs a water-network input")
        write_incidence_csv(bundle.net, args.dump_incidence)
    if args.dump_pattern:
        Path(args.dump_pattern).write_text(to_pattern(bundle.graph).to_json() + "\n")
    if args.format == "json":
        _dump_json(payload, args.out)
    elif args.format == "csv":
        rows = [(key, payload[key]) for key in sorted(payload) if key != "preconditions"]
        _emit_csv([("key", "value"), *rows], args.out)
    else:
        lines = [
            f"input: {bundle.path} ({payload['kind']})",
            f"hydraulic nodes: {payload['hydraulic_nodes']}  links: {payload['links']}",
            f"state nodes: {payload['state_nodes']}  cycles: {payload['cycles']}",
            f"extreme nodes ({cls.n_e}): {', '.join(payload['extreme']) or '-'}",
            f"intersection nodes ({cls.n_i}): {', '.join(payload['intersection']) or '-'}",
            "preconditions: symmetric={symmetric} fully_connected={fully_connected} has_extreme={has_extreme}".format(
                **payload["preconditions"]
            ),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_place(args) -> int:
    bundle = load_input(args.path)
    run = PipelineRun(bundle.graph, args.mode)
    p, cert = run.placement, run.certificate
    if not cert.sso:
        sys.stderr.write(f"refused: the {p.mode} placement failed certification on this input\n")
        sys.stderr.write(_white_states_line(cert, bundle.labels) + "\n")
        sys.stderr.write(cert.to_json() + "\n")
        return EXIT_CERT
    counts = run.counts._asdict()
    if args.format == "csv":
        rows = [(k, s, bundle.labels[s]) for k, s in enumerate(p.measured)]
        _emit_csv([("sensor", "state_index", "label"), *rows], args.out)
    elif args.format == "text":
        lines = [
            f"mode: {p.mode}",
            f"sensors ({p.n_y}): " + ", ".join(f"{s} ({bundle.labels[s]})" for s in p.measured),
            "extreme nodes: {extreme_nodes}  cycles: {cycles}  bound_ok: {bound_ok}".format(**counts),
            "certificate: strongly structurally observable",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "placement": p.as_dict(bundle.labels),
            "counts": counts,
            "certificate": cert.as_dict(),
        }
        _dump_json(payload, args.out)
    return EXIT_OK


def _white_states_line(cert, labels: list) -> str:
    """Each uncolorable graph's white-state count and first ten labels: the states its trace never forces.

    Each trace step forces one white state, so a graph leaves ``len(labels) - len(trace)`` white.
    """
    parts = []
    for name, colorable, trace in cert.graphs:
        if not colorable:
            forced = {u for (_, u) in trace}
            whites = islice((label for v, label in enumerate(labels) if v not in forced), 10)
            parts.append(f"{name} has {len(labels) - len(trace)} (first: {', '.join(whites)})")
    return "white states: " + "; ".join(parts)


def cmd_certify(args) -> int:
    bundle = load_input(args.path)
    run = PipelineRun(bundle.graph, given=_resolve_sensors(args.sensors, bundle))
    cert, measured = run.certificate, list(run.placement.measured)
    payload = {
        "sensors": measured,
        "labels": [bundle.labels[i] for i in measured],
        "certificate": cert.as_dict(),
    }
    if args.format == "text":
        verdict = "strongly structurally observable" if cert.sso else "NOT strongly structurally observable"
        _emit(f"sensors: {measured}\n{verdict}\n", args.out)
    else:
        _dump_json(payload, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    bundle = load_input(args.path)
    given = _resolve_sensors(args.sensors, bundle) if args.sensors is not None else None
    run = PipelineRun(bundle.graph, given=given)
    report = sample_and_check(run, trials=args.trials, seed=args.seed)
    payload = {"sensors": list(run.placement.measured), **report._asdict()}
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_minimize(args) -> int:
    bundle = load_input(args.path)
    progress = None
    if args.verbose:
        def progress(update):
            sys.stderr.write(json.dumps(update, sort_keys=True) + "\n")
    result = exhaustive_min_sensors(bundle.graph, progress=progress)
    heuristic = PipelineRun(bundle.graph).placement
    payload = {**result._asdict(), "heuristic_sensors": heuristic.n_y}
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    bundle = load_input(args.path)
    run = PipelineRun(bundle.graph, args.mode)
    flows = bundle.net.n_links if bundle.net else None  # a network's first states are its link flows
    if args.stage == "graph":
        text = dot.graph_dot(bundle.graph, bundle.labels, flows)
    elif args.stage == "tree":
        text = dot.tree_dot(bundle.graph, run.tree, bundle.labels, flows)
    elif args.stage == "placement":
        text = dot.placement_dot(bundle.graph, run.placement, bundle.labels, flows)
    else:
        closed = run.stuck or run.a_run
        text = dot.trace_dot(closed.graph, run.placement.measured, closed.trace, bundle.labels)
    _emit(text, args.out)
    return EXIT_OK


def _bench_one(path: str) -> dict:
    import statistics

    bundle = load_input(path)
    timings = []
    for _ in range(BENCH_REPEATS):
        run = PipelineRun(bundle.graph)
        start = time.perf_counter()
        run.output  # spanning forest, placement, output pattern: the paper-timed stages
        timings.append(time.perf_counter() - start)
    if not run.certificate.sso:
        raise ValueError(f"placement for {path} failed certification")
    counts = run.counts
    values = (Path(path).stem, bundle.graph.n, counts.cycles, counts.extreme_nodes, counts.sensors,
              round(statistics.median(timings), 6))
    return dict(zip(BENCH_COLUMNS, values))


def cmd_bench(args) -> int:
    rows, failed = [], []
    for path in args.paths:
        try:
            rows.append(_bench_one(path))
            if args.verbose:
                sys.stderr.write(f"INFO strucsense: bench {path} done\n")
        except INPUT_ERRORS as exc:  # the path's own fault: keep going, report at the end
            failed.append((path, str(exc)))
            sys.stderr.write(f"bench failed for {path}: {exc}\n")

    def cell(row, col):
        return f"{row[col]:.6f}" if col == "elapsed_seconds" else str(row[col])

    if args.format == "json":
        _dump_json(rows, args.out)
    elif args.format == "csv":
        _emit_csv([BENCH_COLUMNS, *([cell(row, c) for c in BENCH_COLUMNS] for row in rows)], args.out)
    else:
        header = "| " + " | ".join(BENCH_COLUMNS) + " |"
        sep = "|" + "|".join("---" for _ in BENCH_COLUMNS) + "|"
        lines = [header, sep]
        lines += ["| " + " | ".join(cell(row, c) for c in BENCH_COLUMNS) + " |" for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_INPUT if failed else EXIT_OK


def _add_common(parser, formats=("json", "csv", "text")) -> None:
    """``--out`` for every command, and ``--format``, text by default, for one that offers ``formats``."""
    if formats:
        parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Exits ``EXIT_INPUT`` on a usage error, as on any other input error; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each ``parse_args`` fills a fresh namespace."""
    parser = _Parser(
        prog="strucsense",
        description="Sensor placement with strong structural observability certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="network summary: counts, node roles, preconditions")
    p_info.add_argument("path")
    p_info.add_argument("--dump-incidence", default=None, help="also write the incidence matrix CSV here")
    p_info.add_argument("--dump-pattern", default=None, help="also write the state pattern JSON here")
    _add_common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_place = sub.add_parser("place", help="compute and certify a sensor placement")
    p_place.add_argument("path")
    p_place.add_argument("--mode", choices=("tree", "cyclic"), default="cyclic")
    _add_common(p_place)
    p_place.set_defaults(func=cmd_place)

    p_cert = sub.add_parser("certify", help="certify a user-proposed placement")
    p_cert.add_argument("path")
    p_cert.add_argument("--sensors", required=True, help="comma-separated state indices or labels")
    _add_common(p_cert, formats=("json", "text"))
    p_cert.set_defaults(func=cmd_certify)

    p_oracle = sub.add_parser("oracle", help="sample numeric realizations and run the rank test")
    p_oracle.add_argument("path")
    p_oracle.add_argument("--trials", type=int, default=100)
    p_oracle.add_argument("--seed", type=int, default=42)
    p_oracle.add_argument("--sensors", default=None, help="override the computed placement")
    _add_common(p_oracle, formats=())
    p_oracle.set_defaults(func=cmd_oracle)

    p_min = sub.add_parser("minimize", help="exhaustive minimum sensor search (small networks)")
    p_min.add_argument("path")
    _add_common(p_min, formats=())
    p_min.set_defaults(func=cmd_minimize)

    p_dot = sub.add_parser("export-dot", help="Graphviz export of a pipeline stage")
    p_dot.add_argument("path")
    p_dot.add_argument("--stage", choices=("graph", "tree", "placement", "trace"), default="graph")
    p_dot.add_argument("--mode", choices=("tree", "cyclic"), default="cyclic")
    _add_common(p_dot, formats=())
    p_dot.set_defaults(func=cmd_export_dot)

    p_bench = sub.add_parser("bench", help="timed pipeline per network, table output")
    p_bench.add_argument("paths", nargs="*")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # progress lines on stderr: the JSON updates of ``minimize`` and one line per ``bench`` path
    args.verbose = os.environ.get("STRUCSENSE_LOG", "").lower() in ("info", "debug")
    # Every structure a command builds is acyclic and freed by reference counting, so a
    # cyclic pass during the command would scan its live objects and collect nothing.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
