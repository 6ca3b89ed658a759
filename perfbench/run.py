"""strucsense benchmark: closed-loop throughput of the user-facing commands.

Run from the repository root:

    python3 perfbench/run.py --workload ltown_place --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One process, one client, closed loop, BLAS threads pinned to 1. Each op runs
two commands through ``strucsense.cli.main`` on an input generated from the
seed. Outputs are checked after the timed loop. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` times half the run
untraced and half with every layer function wrapped, and reports the
per-layer metrics. Every metric is printed as ``name value unit``; the last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads
os.environ["STRUCSENSE_LOG"] = "warning"  # info would stream progress into the outputs

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import calibrate
import gen
import ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
STATE_DIR = ROOT / ".perfbench"  # generated inputs (removed) and span files

PUBLISHED_BOUND_S = 1.0  # the paper's time bound for its timed stages at L-town size
SETUP_PROBES = 7
PAPER_BATCH_S = 0.01  # shortest timed batch of the paper-timed stages
# (states, minimum sensors) of each desk graph: every seed's pool has the same
# search cost, 299 to 2517 configurations per graph. Two graphs per class, so
# the pool's cost depends less on the particular graphs a seed draws.
DESK_CLASSES = tuple((n, m) for n in range(12, 17) for m in (3, 4)) * 2


@dataclass(frozen=True)
class Workload:
    kind: str  # "wdn" (info + place) or "desk" (minimize + oracle)
    pool: int  # distinct inputs per seed, visited in turn
    nodes: int = 0  # hydraulic nodes per network
    chords: int = 0  # links beyond the spanning tree


WORKLOADS = {
    "ltown_place": Workload("wdn", pool=48, nodes=gen.LTOWN_NODES, chords=gen.LTOWN_CHORDS),
    "ltown10_place": Workload("wdn", pool=2, nodes=10 * gen.LTOWN_NODES, chords=10 * gen.LTOWN_CHORDS),
    "desk_minimize": Workload("desk", pool=len(DESK_CLASSES)),
}
# the command that produces a placement, and the one that inspects
PLACE_CMD = {"wdn": "place", "desk": "minimize"}
CHECK_CMD = {"wdn": "info", "desk": "oracle"}
ALLOWED_RC = {"place": (0, 2)}  # exit 2 is a checked refusal; everything else needs 0


@dataclass
class Input:
    path: str
    spec: object  # gen.WdnInput or gen.DeskInput

    @property
    def pattern(self):
        """The expected state pattern, built from the generator on each use.

        Never kept, so it is not resident while the loop's peak memory is taken.
        """
        from strucsense.pattern import PatternMatrix

        if isinstance(self.spec, gen.WdnInput):
            star, unknown = self.spec.pattern_sets()
            n = self.spec.n_states
            return PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric=True)
        return PatternMatrix(self.spec.n, self.spec.n, self.spec.star, self.spec.unknown, symmetric=True)


class Timing(NamedTuple):
    """One command of an op, without its output."""

    command: str
    rc: int | None
    wall: float  # seconds
    seconds: float  # calibrated
    output_bytes: int


@dataclass
class OpRecord:
    input: int
    calls: list  # of Timing
    problems: list = field(default_factory=list)

    def seconds(self, command: str | None = None) -> float:
        """Calibrated seconds of one command, or of the whole op."""
        return sum(c.seconds for c in self.calls if command in (None, c.command))

    def wall_seconds(self, command: str) -> float:
        return sum(c.wall for c in self.calls if c.command == command)

    def rc(self, command: str):
        return next((c.rc for c in self.calls if c.command == command), None)

    @property
    def scale(self) -> float:
        """Calibrated over wall seconds for the op as a whole."""
        wall = sum(c.wall for c in self.calls)
        return self.seconds() / wall if wall else 1.0


class FirstOutputs:
    """The first output of each (input, command), kept on disk.

    Only a digest stays in memory, so the outputs the checks need later are
    not resident while the loop's peak memory is taken.
    """

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.digests = {}

    @staticmethod
    def _digest(call) -> bytes:
        return hashlib.sha256(f"{call.rc}\0{call.out}\0{call.err}".encode()).digest()

    def _path(self, key) -> Path:
        return self.dir / f"{key[0]:03d}.{key[1]}.json"

    def matches(self, i: int, call) -> bool:
        """Record the first output of this pair, or compare with it."""
        key = (i, call.command)
        if key not in self.digests:
            self.digests[key] = self._digest(call)
            self._path(key).write_text(json.dumps([call.rc, call.out, call.err]))
            return True
        return self.digests[key] == self._digest(call)

    def keys(self) -> list:
        return sorted(self.digests)

    def get(self, key):
        if key not in self.digests:
            return None
        rc, out, err = json.loads(self._path(key).read_text())
        return ops.Call(key[1], rc, out, err, 0.0)


def import_program():
    """Import ``strucsense.cli`` from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "strucsense" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'strucsense'} is missing\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from strucsense import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"imported strucsense from {cli.__file__}, not from {SRC}\n")
        raise SystemExit(2)
    return cli


def make_inputs(name: str, wl: Workload, seed: int, workdir: Path) -> tuple:
    """The seed's pool of inputs plus a small warm-up input of the same kind."""
    rng = random.Random(f"{name}:{seed}")
    if wl.kind == "wdn":
        specs = [gen.wdn_network(rng.getrandbits(32), wl.nodes, wl.chords) for _ in range(wl.pool)]
        warm = gen.wdn_network(rng.getrandbits(32), 78, 12)
    else:
        specs = [gen.desk_graph_with_minimum(rng, n, m) for n, m in DESK_CLASSES]
        warm = gen.desk_graph(rng.getrandbits(32), 8)
    suffix = ".inp" if wl.kind == "wdn" else ".json"
    inputs = []
    for k, spec in enumerate(specs + [warm]):
        path = workdir / f"{k:03d}{suffix}"
        path.write_text(spec.text)
        inputs.append(Input(str(path), spec))
    return inputs[:-1], inputs[-1]


def run_loop(cli, wl: Workload, inputs: list, seconds: float, passes: int, first: FirstOutputs,
             tracer=None, paper: dict | None = None) -> list:
    """Closed loop over the pool until ``seconds`` pass and ``passes`` full passes are done.

    The calibration kernel runs before and after each op; the op's time is
    scaled by the mean of the two kernel times. Outputs are compared with
    the first output of the same command on the same input, then dropped.
    With ``paper``, one batch of the paper-timed stages on the op's input
    runs after the op, inside the same kernel samples, and its calibrated
    seconds per call are appended under the input's index; so it sees the
    same stretch of machine time as the ops do.
    """
    op = ops.OPS[wl.kind]
    records = []
    deadline = time.perf_counter() + seconds
    point = calibrate.sample()
    while len(records) < passes * len(inputs) or time.perf_counter() < deadline:
        i = len(records) % len(inputs)
        if tracer is not None:
            tracer.op_id = len(records)
        calls = op(cli, inputs[i].path)
        if tracer is not None:
            tracer.op_id = -1
        paper_wall = paper_batch(inputs[i]) if paper is not None else 0.0
        before, point = point, calibrate.sample()
        scale = calibrate.scale((before + point) / 2)
        if paper is not None:
            paper.setdefault(i, []).append(paper_wall * scale)
        record = OpRecord(i, [Timing(c.command, c.rc, c.seconds, c.seconds * scale, c.output_bytes) for c in calls])
        if len(calls) != 2:
            record.problems.append(f"{calls[0].command} exited {calls[0].rc}; no second command")
        for c in calls:
            if c.rc not in ALLOWED_RC.get(c.command, (0,)):
                record.problems.append(f"{c.command} exited {c.rc}: {c.err.strip()[-300:]}")
            if not first.matches(i, c):
                record.problems.append(f"{c.command} output differs between calls on the same input")
        records.append(record)
    return records


def check_outputs(wl: Workload, inputs: list, first: FirstOutputs) -> dict:
    """Deep checks of each input's first outputs; returns problems per input."""
    import checks

    problems = {}
    for i, command in first.keys():
        inp, c = inputs[i], first.get((i, command))
        try:
            if c.rc not in ALLOWED_RC.get(command, (0,)):
                found = []  # already counted on every op that saw it
            elif command == "info":
                found = checks.info_problems(inp.spec, c.out)
            elif command == "place":
                found = checks.place_problems(inp.spec, inp.pattern, c.rc, c.out, c.err)
            elif command == "minimize":
                found = checks.minimize_problems(inp.spec, c.out)
            else:
                found = checks.oracle_problems(ops.first_witness(first.get((i, "minimize"))), c.out)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            found = [f"{command} output could not be checked: {exc!r}"]
        problems.setdefault(i, []).extend(f"input {i} {command}: {p}" for p in found)
    return problems


def pool_seconds(records, command: str | None = None) -> float:
    """Calibrated seconds of one command, or of the whole op, over the pool.

    The median per input, then the geometric mean over the inputs. Per-input
    medians keep the figure steady when inputs differ in kind, such as
    certified and refused placements, or small and large searches; the
    geometric mean weighs each input's relative change alike.
    """
    by_input = {}
    for r in records:
        if command is None or r.rc(command) is not None:
            by_input.setdefault(r.input, []).append(r.seconds(command))
    return statistics.geometric_mean(statistics.median(v) for v in by_input.values())


def ops_per_s(records) -> float:
    return 1 / pool_seconds(records)


def paper_batch(inp: Input) -> float:
    """Wall seconds per call of the paper-timed stages on one input.

    Spanning forest, leaf placement and output pattern, on the graph the
    CLI builds, in a batch of calls long enough to dwarf the timer, with
    the garbage collector off as ``timeit`` does.
    """
    from strucsense.netgraph import from_pattern
    from strucsense.placement import build_output_pattern, place_cyclic
    from strucsense.spanning import spanning_tree_dfs

    def batch(g, calls: int) -> float:
        start = time.perf_counter_ns()
        for _ in range(calls):
            build_output_pattern(place_cyclic(g, spanning_tree_dfs(g)), g.n)
        return (time.perf_counter_ns() - start) / 1e9 / calls

    g = from_pattern(inp.pattern, transpose=True)
    gc.disable()
    try:
        return batch(g, max(1, round(PAPER_BATCH_S / batch(g, 1))))
    finally:
        gc.enable()


def setup_seconds(kind: str, warm: Input) -> float:
    """Median over fresh interpreters of importing the CLI plus one warm-up op, calibrated.

    The kernel is timed in each probe's own interpreter. A ratio of medians
    is steadier here than a median of ratios, because one kernel sample in a
    fresh process is noisier than the set-up it scales.
    """
    elapsed, kernel = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), kind, warm.path],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        probe_elapsed, probe_kernel = map(float, done.stdout.split()[-2:])
        elapsed.append(probe_elapsed)
        kernel.append(probe_kernel)
    return statistics.median(elapsed) * calibrate.scale(statistics.median(kernel))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(wl, records, paper, warm) -> dict:
    rss = peak_rss_mb()  # before the checks build patterns
    return {
        "setup_s": setup_seconds(wl.kind, warm),
        "ops_per_s": ops_per_s(records),
        "place_cmd_s": pool_seconds(records, PLACE_CMD[wl.kind]),
        "check_cmd_s": pool_seconds(records, CHECK_CMD[wl.kind]),
        "paper_p50_s": statistics.geometric_mean(statistics.median(v) for v in paper.values()),
        "peak_rss_mb": rss,
    }


def input_sizes(wl: Workload, inp: Input, first: FirstOutputs, i: int) -> dict:
    """States, star edges, cycles and sensors of one input, from input and outputs."""
    spec = inp.spec
    if wl.kind == "wdn":
        states, star_edges, cycles = spec.n_states, 2 * len(spec.links), spec.cycles
    else:
        pairs = {(min(a, b), max(a, b)) for (a, b) in spec.star if a != b}
        states, star_edges, cycles = spec.n, len(pairs), len(pairs) - spec.n + 1
    place = first.get((i, PLACE_CMD[wl.kind]))
    try:
        if wl.kind == "desk":
            sensors = json.loads(place.out)["minimum_size"]
        elif place.rc == 0:
            sensors = json.loads(place.out)["counts"]["sensors"]
        else:
            import checks

            sensors = len(checks.leaves(inp.pattern))  # the refused leaf placement
    except (AttributeError, KeyError, TypeError, ValueError):
        sensors = 0  # no readable placement; the checks count the op as failed
    return {"sizes.states": states, "sizes.star_edges": star_edges, "sizes.cycles": cycles, "sizes.sensors": sensors}


def per_layer(wl, records_untraced, records_traced, first, inputs, tracer) -> dict:
    n_ops = len(records_traced)
    table = tracer.per_op(n_ops)
    scale = [r.scale for r in records_traced]
    for key in [k for k in table if k.endswith("_s")]:
        table[key] = [v * f for v, f in zip(table[key], scale)]
    sizes = {i: input_sizes(wl, inputs[i], first, i) for i in {r.input for r in records_traced}}
    table["cli.output_bytes"] = [sum(c.output_bytes for c in r.calls) for r in records_traced]
    for key in ("sizes.states", "sizes.star_edges", "sizes.cycles", "sizes.sensors"):
        table[key] = [sizes[r.input][key] for r in records_traced]
    table["placement.sensors_per_state"] = [sizes[r.input]["sizes.sensors"] / sizes[r.input]["sizes.states"] for r in records_traced]
    configs = table.get("oracle.configs_checked")
    if configs is not None:
        table["oracle.useful_ratio"] = [w / c if c else 0.0 for w, c in zip(table["oracle.witnesses"], configs)]
    metrics = {}
    for spec in load_spec()["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_ratio":
            metrics[name] = ops_per_s(records_untraced) / ops_per_s(records_traced)
        elif name == "placement.certified_frac":
            places = [r.rc("place") for r in records_untraced + records_traced if r.rc("place") is not None]
            metrics[name] = sum(1 for rc in places if rc == 0) / len(places) if places else 0.0
        else:
            values = table.get(name)
            metrics[name] = float(statistics.median(values)) if values is not None and len(values) else 0.0
    return metrics


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def report(name: str, metrics: dict, specs: list, notes: list, correct: bool, attempted: int, failed: int) -> None:
    units = {s["name"]: s for s in specs}
    print(f"workload {name}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:16.6f} {units[key]['unit']:6s} ({units[key]['better']} is better)")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]["unit"]} for k, v in metrics.items()},
    }))


def percentile_notes(wl: Workload, records: list) -> list:
    """Latency percentiles with enough samples (ten or more beyond them)."""
    notes = []
    for command in (CHECK_CMD[wl.kind], PLACE_CMD[wl.kind]):
        for label, value in (("wall", OpRecord.wall_seconds), ("calibrated", OpRecord.seconds)):
            samples = [value(r, command) for r in records if r.rc(command) is not None]
            if not samples:
                continue
            line = f"{command} {label}: {len(samples)} calls, p50 {statistics.median(samples):.6f} s"
            if len(samples) >= 100:
                line += f", p90 {statistics.quantiles(samples, n=10)[8]:.6f} s"
            notes.append(line)
    return notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    wl = WORKLOADS[name]
    cli = import_program()
    STATE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE_DIR))
    try:
        inputs, warm = make_inputs(name, wl, seed, workdir)
        ops.OPS[wl.kind](cli, warm.path)  # first-call costs land in set-up, not in the loop
        calibrate.sample()
        # The program's garbage collections should scan only its own objects,
        # as in a fresh CLI process, not the benchmark's inputs.
        gc.collect()
        gc.freeze()
        harness_rss = peak_rss_mb()
        first = FirstOutputs(workdir)
        if trace:
            import tracing

            # one pass in each half, so every input still runs twice
            untraced = run_loop(cli, wl, inputs, seconds / 2, 1, first)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_loop(cli, wl, inputs, seconds / 2, 1, first, tracer)
            finally:
                tracer.uninstall()
            tracer.write(STATE_DIR / f"spans-{name}-seed{seed}.npz")
            records = untraced + traced
            metrics = per_layer(wl, untraced, traced, first, inputs, tracer)
        else:
            paper = {}
            records = run_loop(cli, wl, inputs, seconds, 2, first, paper=paper)
            metrics = end_to_end(wl, records, paper, warm)
        problems = check_outputs(wl, inputs, first)
        failed = 0
        for r in records:
            r.problems.extend(problems.get(r.input, []))
            failed += bool(r.problems)
        notes = percentile_notes(wl, records)
        certified = [r.rc("place") == 0 for r in records if r.rc("place") is not None]
        if certified:
            notes.append(f"place certified (exit 0): {sum(certified)}/{len(certified)}; the rest are checked refusals (exit 2)")
        notes.append(f"failed ops: {failed}/{len(records)}")
        notes.append(f"peak RSS before the loop (interpreter, program import, inputs, warm-up): {harness_rss:.1f} MB")
        notes.append(f"paper-timed stages: published bound < {PUBLISHED_BOUND_S:g} s at L-town size")
        for message in sorted({p for r in records for p in r.problems})[:20]:
            sys.stderr.write(f"check failed: {message}\n")
        report(name, metrics, spec["per_layer" if trace else "end_to_end"], notes, failed == 0, len(records), failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for wl in load_spec()["workloads"]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", wl["name"], "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{wl['name']}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        sys.stderr.write(f"{SPEC} is missing\n")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
