"""Calibration kernel: a fixed piece of work that tracks the machine's speed.

On a shared machine the speed of one core drifts by tens of percent over
minutes, as neighbours come and go, and every timing drifts with it. The
benchmark runs this kernel between ops and scales each op's time
by ``nominal / kernel time``. That reads as seconds on a machine where the
kernel takes exactly its nominal time. The kernel is the benchmark's own
code, so a change to the program cannot move it. It does the same kinds of
work as the program: tuples in sets, sorting, adjacency lists, a heap
worklist, JSON and text, and a freshly allocated numpy array.
"""

from __future__ import annotations

import gc
import heapq
import json
import time

import numpy as np

NOMINAL_S = 0.010
RUNS = 3  # kernel runs per sample; the median drops a run slowed by the op before it
_N = 1500


def kernel() -> int:
    pairs = {(i, (i * 7919 + 13) % _N) for i in range(_N)} | {(i, (i * 104729 + 7) % _N) for i in range(_N)}
    frozen = frozenset((j, i) for (i, j) in pairs)
    adj = [[] for _ in range(_N)]
    for i, j in sorted(frozen):
        adj[i].append(j)
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    seen = bytearray(_N)
    while heap:
        _, v = heapq.heappop(heap)
        seen[v] = 1
    text = json.dumps({"pairs": sorted([i, j] for (i, j) in pairs)}, sort_keys=True)
    tokens = text.replace("[", " ").replace("]", " ").replace(",", " ").split()
    dense = np.zeros((_N // 4, _N))
    dense[:, ::7] = 1.0
    return len(tokens) + int(dense.sum()) + sum(seen)


def sample() -> float:
    """Median seconds of ``RUNS`` kernel runs, now."""
    times = []
    enabled = gc.isenabled()
    gc.disable()  # so the program's leftover heap cannot slow the kernel
    try:
        for _ in range(RUNS):
            start = time.perf_counter_ns()
            kernel()
            times.append((time.perf_counter_ns() - start) / 1e9)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]


def scale(kernel_s: float) -> float:
    """Factor that turns wall seconds into seconds at the kernel's nominal speed."""
    return NOMINAL_S / kernel_s
