"""Span tracing of the program's layers, installed from outside ``src/``.

Every public function defined in a layer module is replaced, in every
``strucsense`` module that holds a reference to it (``cli``, ``oracle``,
``forcing``, ``netgraph`` and ``placement`` import theirs by name), with a
wrapper that records a span: name, start, end, parent span and the op it
belongs to. Spans stay in memory until the run ends. A span's self time is
its duration minus the time its direct children cover. A few boundaries also
record counts read from their arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "wdn", "pattern", "netgraph", "spanning", "placement", "forcing", "oracle")


def _closure_counts(args, result) -> dict:
    n = args[0].n_states
    black_states = sum(1 for v in result.black if v < n)
    return {"forcing.forcing_steps": len(result.trace), "forcing.white_states": n - black_states}


def _incidence_counts(args, result) -> dict:
    net = args[0]
    return {"wdn.incidence_bytes": net.n_nodes * net.n_links * 8}


def _search_counts(args, result) -> dict:
    return {"oracle.configs_checked": result.configurations_checked, "oracle.witnesses": len(result.witnesses)}


COUNTERS = {
    "forcing.force_closure": _closure_counts,
    "wdn.incidence": _incidence_counts,
    "oracle.exhaustive_min_sensors": _search_counts,
}
# counts averaged per call within an op ("per graph"); all others are summed
PER_CALL_COUNTS = {"forcing.forcing_steps", "forcing.white_states"}


class Tracer:
    """Records spans while ``op_id`` is set; ``uninstall`` restores the program."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_col: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op: list = []
        self.counts: list = []  # (op, key, value)
        self.op_id = -1
        self._stack: list = []
        self._patched: list = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"strucsense.{layer}"]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        holders = [m for name, m in list(sys.modules.items()) if name == "strucsense" or name.startswith("strucsense.")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_col.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                try:
                    counted = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    counted = {}  # the boundary's signature changed; spans still count
                for key, value in counted.items():
                    self.counts.append((self.op_id, key, value))
            return result

        return wrapper

    def self_times(self) -> np.ndarray:
        """Self time of each span in seconds."""
        duration = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(len(duration), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return (duration - child) / 1e9

    def per_op(self, n_ops: int) -> dict:
        """Per-op totals: ``<name>_s`` self seconds, ``<name>_calls``, and counts."""
        op = np.asarray(self.op, dtype=np.int64)
        names = np.asarray(self.name_col, dtype=np.int64)
        self_s = self.self_times()
        table = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            table[f"{name}_s"] = np.bincount(op[mask], weights=self_s[mask], minlength=n_ops)
            table[f"{name}_calls"] = np.bincount(op[mask], minlength=n_ops).astype(float)
        for layer in LAYERS:
            mask = np.array([self.names[i].split(".")[0] == layer for i in names.tolist()], dtype=bool)
            if layer == "cli":  # load_input is reported on its own
                mask &= names != self._ids.get("cli.load_input", -1)
            table[f"{layer}.self_s"] = np.bincount(op[mask], weights=self_s[mask], minlength=n_ops)
        sums, calls = {}, {}
        for op_id, key, value in self.counts:
            sums.setdefault(key, np.zeros(n_ops))[op_id] += value
            calls.setdefault(key, np.zeros(n_ops))[op_id] += 1
        for key, total in sums.items():
            table[key] = np.divide(total, calls[key], out=np.zeros(n_ops), where=calls[key] > 0) if key in PER_CALL_COUNTS else total
        return table

    def write(self, path: Path) -> None:
        """Save every span (name, start, end, parent, op) as compressed arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.name_col, dtype=np.int32),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int32),
        )
