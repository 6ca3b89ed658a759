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

import strucsense.oracle

from strucsense import (
    PatternMatrix,
    PipelineRun,
    build_output_pattern,
    classify_nodes,
    cycle_count,
    find_unobservable_realization,
    from_pattern,
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
from generators import cyclic_inp_text, given_run, random_symmetric_pattern, tree_inp_text


def test_cyclic_certificate_at_benchmark_scale(tmp_path):
    """Both traces replay to their verdicts, and a refused ``place`` prints the certificate's own JSON last.

    Seed 3's chords leave Abar uncolorable under the cyclic placement, so both verdicts occur.
    """
    path = tmp_path / "cyclic.inp"
    path.write_text(cyclic_inp_text(782, 124, seed=3))
    bundle = load_input(str(path))
    g = bundle.graph
    assert (g.n, cycle_count(g)) == (1687, 124)
    p = place_cyclic(g, spanning_tree_dfs(g))
    c = build_output_pattern(p, g.n)
    cert = PipelineRun(g, given=p).certificate
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


def traced(fn, *args) -> tuple:
    """``fn(*args)`` and its traced peak in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def assert_sparse_witness(run: PipelineRun, witness: tuple) -> None:
    """X sits on A's positions with every star nonzero, X x = λ x row by row, and x is zero on every sensor."""
    realization, vector, lam = witness
    a = to_pattern(run.graph)
    assert realization.keys() <= a.star | a.unknown
    assert all(realization.get(p) for p in a.star)
    sums = dict.fromkeys(range(run.graph.n), 0.0)
    for (i, j), value in realization.items():
        sums[i] += value * vector.get(j, 0.0)
    assert all(abs(s - lam * vector.get(i, 0.0)) <= 1e-8 + 1e-5 * lam * vector.get(i, 0.0) for i, s in sums.items())
    assert all(vector.values()) and not vector.keys() & set(run.placement.measured)


def test_unobservable_witness_at_benchmark_scale():
    """Seed 3's refusal is backed by a realization solved on A's graph over Abar's white set: X in A's class, X x = x.

    x vanishes on every sensor and is nonzero on exactly the states Abar's closure leaves white.
    The witness holds the graph's entries only, no n x n array.
    """
    run = PipelineRun(state_graph(parse_inp(cyclic_inp_text(782, 124, seed=3))))
    cert = run.certificate
    witness, peak = traced(find_unobservable_realization, run)
    assert witness[2] == 1.0
    assert_sparse_witness(run, witness)
    assert len(witness[1]) == run.graph.n - len(cert.trace_abar) == 110
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_unobservable_witness_at_ten_times_benchmark_scale():
    """At 10x L-town (16.9k states), where a dense X would take 2.3 GB, the witness fits in tens of MiB."""
    run = PipelineRun(state_graph(parse_inp(cyclic_inp_text(7820, 1240, seed=1))))
    witness, peak = traced(find_unobservable_realization, run)
    assert witness[2] == 1.0
    assert_sparse_witness(run, witness)
    assert len(witness[1]) == 252
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


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

    cert = PipelineRun(g, given=placement).certificate
    assert cert.sso
    assert placement.n_y == classify_nodes(g).n_e


def test_load_path_holds_no_dense_matrix(tmp_path):
    """Loading a 4000-node network stays sparse: no 4000 x 3999 float matrix (128 MB)."""
    path = tmp_path / "tree4000.inp"
    path.write_text(tree_inp_text(4000))
    bundle, peak = traced(load_input, str(path))
    assert bundle.graph.n == 7999
    assert peak < 48 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_load_path_builds_no_state_pattern(tmp_path):
    """Loading reads the graph off the links: no pattern, no edge sets (10.6 MiB when both were built)."""
    path = tmp_path / "tree4000.inp"
    path.write_text(tree_inp_text(4000))
    bundle, peak = traced(load_input, str(path))
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
        report = sample_and_check(given_run(a, c), trials=2000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passes == 2000  # every state measured
    assert peak < 24 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_oracle_trial_count_never_sets_the_memory(monkeypatch):
    """Each batch draws its own seeds: 20,000 trials peak no higher than 2,000 (all seeds at once held 16 B a trial)."""
    monkeypatch.setattr(strucsense.oracle, "CHUNK_DOUBLES", 1000)  # 30 trials a batch on 3 states and 2 sensors
    run = PipelineRun(from_pattern(PatternMatrix.from_rows(["0**", "*0*", "**0"], symmetric=True)))
    sample_and_check(run, trials=100, seed=0)  # reads the run's stages before any trace
    peaks = []
    for trials in (2_000, 20_000):
        tracemalloc.start()
        try:
            assert sample_and_check(run, trials=trials, seed=0).passes == trials
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 4096, f"traced peaks {peaks} B"
