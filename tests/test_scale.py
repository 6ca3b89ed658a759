"""Scalability smoke test at the largest benchmark's size.

A pure tree network always certifies (cyclic placement measures every
leaf, a superset of the tree rule's certified set), so this exercises the
full pipeline on ~1700 states without depending on benchmark files.
"""

import random
import statistics
import time
import tracemalloc

import numpy as np

from strucsense import (
    build_output_pattern,
    build_structured_wdn,
    certify_sso,
    classify_nodes,
    cycle_count,
    from_pattern,
    place_cyclic,
    spanning_tree_dfs,
)
from strucsense.cli import load_input
from strucsense.wdn import parse_inp, write_incidence_csv


def big_tree_network(n_h: int, seed: int = 0) -> np.ndarray:
    rng = random.Random(seed)
    links = [(rng.randrange(i), i) for i in range(1, n_h)]
    inc = np.zeros((n_h, len(links)))
    for col, (i, j) in enumerate(links):
        inc[i, col] = 1.0
        inc[j, col] = -1.0
    return inc


def test_pipeline_at_benchmark_scale():
    pattern = build_structured_wdn(big_tree_network(847))
    g = from_pattern(pattern, transpose=True)
    assert g.n == 1693
    assert cycle_count(g) == 0

    timings = []
    for _ in range(5):
        start = time.perf_counter()
        tree = spanning_tree_dfs(g)
        placement = place_cyclic(g, tree)
        build_output_pattern(placement, g.n)
        timings.append(time.perf_counter() - start)
    # same stages and bound the timed benchmark criteria use
    assert statistics.median(timings) < 1.0

    cert = certify_sso(pattern, build_output_pattern(placement, g.n))
    assert cert.sso
    assert placement.n_y == classify_nodes(g).n_e


def test_load_path_holds_no_dense_matrix(tmp_path):
    """Loading a 4000-node network stays sparse: no 4000 x 3999 float matrix (128 MB)."""
    rng = random.Random(0)
    n_h = 4000
    lines = ["[JUNCTIONS]"] + [f" J{i} 0" for i in range(n_h)] + ["[PIPES]"]
    lines += [f" P{i} J{rng.randrange(i)} J{i} 100 300 100" for i in range(1, n_h)]
    path = tmp_path / "tree4000.inp"
    path.write_text("\n".join(lines) + "\n")

    tracemalloc.start()
    try:
        bundle = load_input(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.graph.n == 7999
    assert peak < 48 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_incidence_export_holds_no_dense_matrix(tmp_path):
    """Exporting a 2000-node tree's incidence never holds its 2000 x 1999 float matrix (32 MB)."""
    rng = random.Random(0)
    n_h = 2000
    lines = ["[JUNCTIONS]"] + [f" J{i} 0" for i in range(n_h)] + ["[PIPES]"]
    lines += [f" P{i} J{rng.randrange(i)} J{i} 100 300 100" for i in range(1, n_h)]
    net = parse_inp("\n".join(lines) + "\n")
    path = tmp_path / "incidence.csv"

    tracemalloc.start()
    try:
        write_incidence_csv(net, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with path.open() as f:
        rows = sum(1 for _ in f)
    assert rows == n_h
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
