"""Command-line interface: inspect, place, certify, sample, minimize, export, bench.

Inputs are either EPANET INP files (water networks, parsed for topology
only) or edge-list JSON files describing a symmetric state graph directly.
Every placement the CLI emits is accompanied by a true certificate; a false
certificate on a pipeline-produced placement is treated as an internal
failure (exit code 2). Exit code 1 covers input and usage errors.

Set STRUCSENSE_LOG=debug|info|warning|error to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import dot
from .forcing import build_observability_graph
from .netgraph import StateGraph, check_preconditions, cycle_count, from_pattern
from .oracle import exhaustive_min_sensors, sample_and_check
from .pattern import PatternMatrix
from .placement import PipelineRun, SensorPlacement
from .wdn import (
    ParseError,
    WdnNetwork,
    parse_edge_list,
    parse_inp,
    structured_pattern,
    structured_state_labels,
    to_pattern,
    write_incidence_csv,
)

logger = logging.getLogger("strucsense")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERT = 2


@dataclass
class InputBundle:
    """Everything downstream commands need, whatever the input format was."""

    path: str
    kind: str  # "wdn" or "edge_list"
    graph: StateGraph
    pattern: PatternMatrix
    labels: list
    net: WdnNetwork | None = None

    @property
    def flow_count(self) -> int | None:
        return self.net.n_links if self.net is not None else None


def load_input(path: str) -> InputBundle:
    """Dispatch on file content: JSON edge list or EPANET INP."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    as_json = path.endswith(".json") or stripped.startswith("{")
    if as_json:
        graph = parse_edge_list(text)
        return InputBundle(
            path=path,
            kind="edge_list",
            graph=graph,
            pattern=to_pattern(graph),
            labels=[str(i) for i in range(graph.n)],
        )
    net = parse_inp(text)
    pattern = structured_pattern(net)
    return InputBundle(
        path=path,
        kind="wdn",
        graph=from_pattern(pattern, transpose=True),
        pattern=pattern,
        labels=structured_state_labels(net),
        net=net,
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump_json(payload, out: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


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
    pre = check_preconditions(bundle.pattern, bundle.graph)
    cls = pre.classification
    payload = {
        "path": bundle.path,
        "kind": bundle.kind,
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
        Path(args.dump_pattern).write_text(bundle.pattern.to_json() + "\n")
    if args.format == "json":
        _dump_json(payload, args.out)
    elif args.format == "csv":
        rows = ["key,value"]
        for key in sorted(payload):
            if key == "preconditions":
                continue
            rows.append(f"{key},{payload[key]}")
        _emit("\n".join(rows) + "\n", args.out)
    else:
        lines = [
            f"input: {bundle.path} ({bundle.kind})",
            f"hydraulic nodes: {payload['hydraulic_nodes']}  links: {payload['links']}",
            f"state nodes: {payload['state_nodes']}  cycles: {payload['cycles']}",
            f"extreme nodes ({cls.n_e}): {', '.join(payload['extreme']) or '-'}",
            f"intersection nodes ({cls.n_i}): {', '.join(payload['intersection']) or '-'}",
            "preconditions: symmetric={symmetric} fully_connected={fully_connected} has_extreme={has_extreme}".format(
                **pre.as_dict()
            ),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_place(args) -> int:
    bundle = load_input(args.path)
    run = PipelineRun(bundle.pattern, bundle.graph, args.mode)
    p, cert = run.placement, run.certificate
    if not cert.sso:
        sys.stderr.write("internal error: pipeline placement failed certification\n")
        sys.stderr.write(_white_states_line(cert, bundle.labels) + "\n")
        sys.stderr.write(cert.to_json() + "\n")
        return EXIT_CERT
    counts = run.counts.as_dict()
    if args.format == "csv":
        rows = ["sensor,state_index,label"]
        rows += [f"{k},{s},{bundle.labels[s]}" for k, s in enumerate(p.measured)]
        _emit("\n".join(rows) + "\n", args.out)
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
    """Each uncolorable graph's white-state count and first labels: the states its trace never forces."""
    parts = []
    for name, colorable, trace in cert.graphs:
        if not colorable:
            forced = {u for (_, u) in trace}
            whites = [label for v, label in enumerate(labels) if v not in forced]
            parts.append(f"{name} has {len(whites)} (first: {', '.join(whites[:10])})")
    return "white states: " + "; ".join(parts)


def cmd_certify(args) -> int:
    bundle = load_input(args.path)
    run = PipelineRun(bundle.pattern, bundle.graph, given=_resolve_sensors(args.sensors, bundle))
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
    given = _resolve_sensors(args.sensors, bundle) if args.sensors else None
    run = PipelineRun(bundle.pattern, bundle.graph, given=given)
    report = sample_and_check(
        bundle.pattern, run.output, trials=args.trials, seed=args.seed, c_mode=args.c_mode
    )
    payload = {"sensors": list(run.placement.measured), **report.as_dict()}
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_minimize(args) -> int:
    bundle = load_input(args.path)
    progress = None
    if logger.isEnabledFor(logging.INFO):
        def progress(update):
            sys.stderr.write(json.dumps(update, sort_keys=True) + "\n")
    result = exhaustive_min_sensors(bundle.pattern, progress=progress)
    heuristic = PipelineRun(bundle.pattern, bundle.graph).placement
    payload = {**result.as_dict(), "heuristic_sensors": heuristic.n_y}
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    bundle = load_input(args.path)
    # the tree stage draws the spanning forest whatever --mode says
    run = PipelineRun(bundle.pattern, bundle.graph, "cyclic" if args.stage == "tree" else args.mode)
    if args.stage == "graph":
        text = dot.graph_dot(bundle.graph, bundle.labels, bundle.flow_count)
    elif args.stage == "tree":
        text = dot.tree_dot(bundle.graph, run.tree, bundle.labels, bundle.flow_count)
    elif args.stage == "placement":
        text = dot.placement_dot(bundle.graph, run.placement, bundle.labels, bundle.flow_count)
    else:  # trace
        obs = build_observability_graph(bundle.pattern, run.output)
        text = dot.trace_dot(obs, run.certificate.trace_a, bundle.labels)
    _emit(text, args.out)
    return EXIT_OK


def _bench_one(path: str, repeats: int = 5) -> dict:
    bundle = load_input(path)
    timings = []
    for _ in range(repeats):
        run = PipelineRun(bundle.pattern, bundle.graph)
        start = time.perf_counter()
        run.output  # spanning forest, placement, output pattern: the paper-timed stages
        timings.append(time.perf_counter() - start)
    if not run.certificate.sso:
        raise RuntimeError(f"placement for {path} failed certification")
    counts = run.counts
    return {
        "name": Path(path).stem,
        "state_nodes": bundle.graph.n,
        "cycles": counts.cycles,
        "extreme_nodes": counts.n_e_graph,
        "sensors": counts.sensors,
        "elapsed_seconds": round(statistics.median(timings), 6),
    }


def cmd_bench(args) -> int:
    rows, failed = [], []
    for path in args.paths:
        try:
            rows.append(_bench_one(path))
            logger.info("bench %s done", path)
        except Exception as exc:  # keep going; report at the end
            failed.append((path, str(exc)))
            sys.stderr.write(f"bench failed for {path}: {exc}\n")
    columns = ["name", "state_nodes", "cycles", "extreme_nodes", "sensors", "elapsed_seconds"]

    def cell(row, col):
        return f"{row[col]:.6f}" if col == "elapsed_seconds" else str(row[col])

    if args.format == "json":
        _dump_json(rows, args.out)
    elif args.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(cell(row, c) for c in columns) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        header = "| " + " | ".join(columns) + " |"
        sep = "|" + "|".join("---" for _ in columns) + "|"
        lines = [header, sep]
        lines += ["| " + " | ".join(cell(row, c) for c in columns) + " |" for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_INPUT if failed else EXIT_OK


def _add_common(parser, formats=("json", "csv", "text")) -> None:
    parser.add_argument("--format", choices=formats, default="text" if "text" in formats else formats[0])
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_oracle.add_argument("--c-mode", choices=("unit", "sampled"), default="unit", dest="c_mode")
    _add_common(p_oracle, formats=("json",))
    p_oracle.set_defaults(func=cmd_oracle)

    p_min = sub.add_parser("minimize", help="exhaustive minimum sensor search (small networks)")
    p_min.add_argument("path")
    _add_common(p_min, formats=("json",))
    p_min.set_defaults(func=cmd_minimize)

    p_dot = sub.add_parser("export-dot", help="Graphviz export of a pipeline stage")
    p_dot.add_argument("path")
    p_dot.add_argument("--stage", choices=("graph", "tree", "placement", "trace"), default="graph")
    p_dot.add_argument("--mode", choices=("tree", "cyclic"), default="cyclic")
    p_dot.add_argument("--out", default=None)
    p_dot.set_defaults(func=cmd_export_dot)

    p_bench = sub.add_parser("bench", help="timed pipeline per network, table output")
    p_bench.add_argument("paths", nargs="*")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("STRUCSENSE_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
