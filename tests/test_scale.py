"""Scalability smoke test at the largest benchmark's size.

A pure tree network always certifies (cyclic placement measures every
leaf, a superset of the tree rule's certified set), so this exercises the
full pipeline on ~1700 states without depending on benchmark files. A tree
with chords has cycles, and the same size checks the certificate's traces
and the refusal it prints when the placement does not certify.
"""

import contextlib
import io
import statistics
import time
import tracemalloc

import numpy as np

from strucsense import (
    PatternMatrix,
    PipelineRun,
    build_output_pattern,
    certify_sso,
    classify_nodes,
    cycle_count,
    find_unobservable_realization,
    is_member,
    make_abar,
    place_cyclic,
    sample_and_check,
    spanning_tree_dfs,
    state_graph,
    to_pattern,
)
from strucsense.cli import load_input, main
from strucsense.forcing import build_observability_graph, replay_trace
from strucsense.wdn import parse_inp, write_incidence_csv
from generators import cyclic_inp_text, random_symmetric_pattern, tree_inp_text


def test_cyclic_certificate_at_benchmark_scale(tmp_path):
    """Both traces replay to their verdicts, and a refused ``place`` prints the certificate's own JSON last.

    Seed 3's chords leave Abar uncolorable under the cyclic placement, so both verdicts occur.
    """
    path = tmp_path / "cyclic.inp"
    path.write_text(cyclic_inp_text(782, 124, seed=3))
    bundle = load_input(str(path))
    g = bundle.graph
    assert (g.n, cycle_count(g)) == (1687, 124)
    c = build_output_pattern(place_cyclic(g, spanning_tree_dfs(g)), g.n)
    cert = certify_sso(g, c)
    assert (cert.colorable_a, cert.colorable_abar) == (True, False)
    a = to_pattern(g)
    for pattern, colorable, trace in ((a, cert.colorable_a, cert.trace_a),
                                      (make_abar(a), cert.colorable_abar, cert.trace_abar)):
        black = replay_trace(build_observability_graph(pattern, c), trace)
        assert colorable == black.issuperset(range(g.n))

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["place", str(path)]) == 2
    assert err.getvalue().splitlines()[-1] == cert.to_json()


def test_unobservable_witness_at_benchmark_scale():
    """Seed 3's refusal is backed by a realization solved on Abar's stuck run: X in A's class, X x = x.

    x vanishes on every sensor and is nonzero on exactly the states Abar's closure leaves white.
    The solve holds one 1687 x 1687 array (21.7 MiB) and no second one.
    """
    g = state_graph(parse_inp(cyclic_inp_text(782, 124, seed=3)))
    run = PipelineRun(g)
    cert = run.certificate
    a = to_pattern(g)
    tracemalloc.start()
    try:
        realization, vector, lam = find_unobservable_realization(run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lam == 1.0
    assert is_member(realization, a)
    assert np.allclose(realization @ vector, lam * vector)
    assert not vector[list(run.placement.measured)].any()
    assert np.count_nonzero(vector) == g.n - len(cert.trace_abar) == 110
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_pipeline_at_benchmark_scale():
    g = state_graph(parse_inp(tree_inp_text(847)))
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

    cert = certify_sso(g, build_output_pattern(placement, g.n))
    assert cert.sso
    assert placement.n_y == classify_nodes(g).n_e


def traced_load(path) -> tuple:
    """``load_input(path)`` and its traced peak in bytes."""
    tracemalloc.start()
    try:
        bundle = load_input(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return bundle, peak


def test_load_path_holds_no_dense_matrix(tmp_path):
    """Loading a 4000-node network stays sparse: no 4000 x 3999 float matrix (128 MB)."""
    path = tmp_path / "tree4000.inp"
    path.write_text(tree_inp_text(4000))
    bundle, peak = traced_load(path)
    assert bundle.graph.n == 7999
    assert peak < 48 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_load_path_builds_no_state_pattern(tmp_path):
    """Loading reads the graph off the links: no pattern, no edge sets (10.6 MiB when both were built)."""
    path = tmp_path / "tree4000.inp"
    path.write_text(tree_inp_text(4000))
    bundle, peak = traced_load(path)
    assert bundle.graph.n == 7999
    assert peak < 6 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_incidence_export_holds_no_dense_matrix(tmp_path):
    """Exporting a 2000-node tree's incidence never holds its 2000 x 1999 float matrix (32 MB)."""
    n_h = 2000
    net = parse_inp(tree_inp_text(n_h))
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


def test_oracle_holds_one_batch_of_trials():
    """2000 trials on 30 states with 30 sensors never hold every stacked 900 x 30 matrix (432 MB)."""
    a = random_symmetric_pattern(0, n_min=30, n_max=30)
    c = PatternMatrix(30, 30, frozenset((i, i) for i in range(30)), frozenset())

    tracemalloc.start()
    try:
        report = sample_and_check(a, c, trials=2000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passes == 2000  # every state measured
    assert peak < 24 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
