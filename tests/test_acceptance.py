"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The two
benchmark criteria need user-supplied EPANET files (see
``scripts/fetch_benchmarks.py``); they skip when the files are absent.
"""

import statistics
import time
from itertools import combinations

import numpy as np
import pytest

from strucsense import (
    PipelineRun,
    build_output_pattern,
    build_structured_wdn,
    certify_sso,
    classify_nodes,
    count_bounds_ok,
    cycle_count,
    exhaustive_min_sensors,
    find_unobservable_realization,
    from_pattern,
    incidence,
    is_member,
    make_abar,
    observability_rank_test,
    parse_edge_list,
    parse_inp,
    place_cyclic,
    place_tree,
    sample_and_check,
    spanning_tree_dfs,
    to_pattern,
)
from strucsense.forcing import (
    build_observability_graph,
    compile_pattern,
    force_closure_reference,
    sensor_states,
)
from strucsense.oracle import realize_unit_output
from strucsense.pattern import Entry, PatternMatrix
from generators import (
    random_connected_pattern,
    random_sensor_rows,
    random_symmetric_pattern,
    random_tree_pattern,
)

import random

FIXTURE_NAMES = [
    "triangle_wdn.inp",
    "path4.inp",
    "two_loop.inp",
    "triangle3.json",
    "star_k13.json",
    "tree9.json",
    "cyclic9.json",
]

# published pipeline results for the benchmark networks:
# name -> (file, state nodes, cycles, extreme nodes, reported sensors, time bound)
BENCHMARKS = {
    "Hanoi": ("Hanoi.inp", 66, 3, 3, 6, 0.5),
    "AnyTown": ("AnyTown.inp", 71, 19, 2, 24, 1.0),
    "Net3": ("Net3.inp", 216, 23, 16, 39, 1.0),
    "D-town": ("D-town.inp", 866, 53, 78, 131, 1.0),
    "L-town": ("L-town.inp", 1694, 124, 37, 162, 1.0),
}


def load_fixture_pattern(path):
    text = path.read_text()
    if path.suffix == ".json":
        return to_pattern(parse_edge_list(text))
    return build_structured_wdn(incidence(parse_inp(text)))


def run_pipeline(pattern):
    """Graph, forest, placement and output pattern, read off the pipeline record the CLI runs."""
    run = PipelineRun(pattern, from_pattern(pattern, transpose=True))
    return run.graph, run.tree, run.placement, run.output


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_criterion_1_2_benchmark_pipeline(name, bench_dir):
    filename, exp_states, exp_cycles, exp_extreme, exp_sensors, time_bound = BENCHMARKS[name]
    path = bench_dir / filename
    if not path.exists():
        pytest.skip(
            f"benchmark file {filename} not present; run scripts/fetch_benchmarks.py "
            f"or set STRUCSENSE_BENCH_DIR"
        )
    pattern = build_structured_wdn(incidence(parse_inp(path.read_text())))
    g = from_pattern(pattern, transpose=True)

    timings = []
    for _ in range(5):
        start = time.perf_counter()
        t = spanning_tree_dfs(g)
        p = place_cyclic(g, t)
        c = build_output_pattern(p, g.n)
        timings.append(time.perf_counter() - start)
    elapsed = statistics.median(timings)

    cert = certify_sso(pattern, c)
    cls = classify_nodes(g)
    cycles = cycle_count(g)
    assert g.n == exp_states, f"{name}: {g.n} state nodes, expected {exp_states}"
    assert cycles == exp_cycles, f"{name}: {cycles} cycles, expected {exp_cycles}"
    assert cls.n_e == exp_extreme, f"{name}: {cls.n_e} extreme nodes, expected {exp_extreme}"
    assert cert.sso, f"{name}: pipeline placement failed certification"
    assert count_bounds_ok(cls.n_e, cycles, p.n_y), (
        f"{name}: {p.n_y} sensors outside [{max(cls.n_e, cycles)}, {cls.n_e + 2 * cycles}]"
    )
    assert elapsed < time_bound, f"{name}: {elapsed:.4f}s exceeds {time_bound}s"
    note = "" if p.n_y == exp_sensors else f" (reported count was {exp_sensors}; trees differ)"
    print(
        f"ACCEPTANCE C1/C2 {name}: PASS: states={g.n} cycles={cycles} "
        f"extreme={cls.n_e} sensors={p.n_y}{note} time={elapsed:.4f}s"
    )


def test_criterion_3_triangle_fixture(fixtures_dir):
    start = time.perf_counter()
    net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
    inc = incidence(net)
    assert np.array_equal(
        inc,
        np.array([[-1, 1, 1, 0], [0, 0, -1, 1], [0, -1, 0, -1], [1, 0, 0, 0]], dtype=float),
    ), "incidence matrix deviates from the documented layout"
    pattern = build_structured_wdn(inc)
    assert (pattern.rows, pattern.cols) == (8, 8)
    diag = [pattern.entry(i, i) for i in range(8)]
    assert diag.count(Entry.STAR) == 4 and diag.count(Entry.UNKNOWN) == 4
    g, t, p, c = run_pipeline(pattern)
    assert p.n_y == 2, f"expected exactly 2 sensors, got {p.measured}"
    assert certify_sso(pattern, c).sso
    report = sample_and_check(pattern, c, trials=100, seed=42)
    assert report.passes == 100, f"oracle passes {report.passes}/100"
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"pipeline took {elapsed:.3f}s, bound is 0.1s"
    print(
        f"ACCEPTANCE C3 triangle: PASS: sensors={list(p.measured)} "
        f"oracle=100/100 time={elapsed:.3f}s"
    )


def test_criterion_4_tree_placements_always_certify():
    failures = []
    for seed in range(200):
        pattern = random_tree_pattern(seed)
        assert 2 <= pattern.rows <= 50
        g = from_pattern(pattern, transpose=True)
        p = place_tree(g)
        if not certify_sso(pattern, build_output_pattern(p, g.n)).sso:
            failures.append(seed)
    assert not failures, f"tree placements failed certification for seeds {failures}"
    print("ACCEPTANCE C4 tree guarantee: PASS: 200/200 certified")


def test_criterion_5_cyclic_placements_certify():
    """Spanning-tree leaf placement on 200 random connected symmetric graphs.

    Every failure below is cross-checked: an explicit numeric realization in
    the pattern class whose unobservable eigenvector no sensor sees. Such
    graphs satisfy every stated precondition (symmetric, star-connected, an
    extreme node present), so a failure is a gap in the placement guarantee
    itself, not in this implementation; see the decisions ledger.
    """
    failures, verified = [], []
    for seed in range(200):
        pattern = random_connected_pattern(seed)
        assert 2 <= pattern.rows <= 50
        g, t, p, c = run_pipeline(pattern)
        if certify_sso(pattern, c).sso:
            continue
        failures.append(seed)
        realization, vector, lam = find_unobservable_realization(pattern, c, seed=seed)
        assert is_member(realization, pattern)
        assert np.allclose(realization @ vector, lam * vector)
        assert not observability_rank_test(
            realization, realize_unit_output(c), max_states=60
        )
        verified.append((seed, lam, int(np.count_nonzero(vector))))
    if failures:
        print(f"ACCEPTANCE C5 cyclic guarantee: FAIL: {200 - len(failures)}/200 certified")
    else:
        print("ACCEPTANCE C5 cyclic guarantee: PASS: 200/200 certified")
    assert not failures, (
        f"{len(failures)}/200 leaf placements are genuinely not strongly structurally "
        f"observable; each failure carries a verified unobservable realization "
        f"(seed, eigenvalue, eigenvector support): {verified}"
    )


def test_criterion_6_forcing_closure_confluence():
    checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        pattern = random_symmetric_pattern(seed, n_max=60)
        sensors = random_sensor_rows(rng, pattern.rows)
        graph, measured = compile_pattern(pattern), sensor_states(pattern, sensors)
        expected = graph.run(measured)[0]
        reference = force_closure_reference(build_observability_graph(pattern, sensors))
        assert {v for v, b in enumerate(expected) if b} == reference.black, f"seed {seed}"
        for order_seed in range(100):
            got = graph.run(measured, random.Random(order_seed))[0]
            assert got == expected, f"seed {seed}, order {order_seed}"
        checked += 1
    assert checked == 100
    print("ACCEPTANCE C6 closure confluence: PASS: 100 graphs x 100 orders")


def test_criterion_7_certified_implies_numerically_observable():
    pairs = 0
    seed = 0
    while pairs < 50:
        pattern = random_connected_pattern(seed, n_max=19)
        seed += 1
        if pattern.rows > 20:
            continue
        g, t, p, c = run_pipeline(pattern)
        if not certify_sso(pattern, c).sso:
            continue
        report = sample_and_check(pattern, c, trials=100, seed=10_000 + seed, tol=1e-9)
        assert report.passes == 100, (
            f"certified placement failed sampling at seed {seed - 1}: "
            f"{report.passes}/100, worst ratio {report.min_sigma_ratio:.2e}"
        )
        pairs += 1
    print("ACCEPTANCE C7 oracle soundness: PASS: 50 pairs x 100 realizations")


def test_criterion_8_exhaustive_baseline_on_fixtures(fixtures_dir):
    lines = []
    for name in FIXTURE_NAMES:
        pattern = load_fixture_pattern(fixtures_dir / name)
        if pattern.rows > 12:
            continue
        g, t, p, c = run_pipeline(pattern)
        start = time.perf_counter()
        result = exhaustive_min_sensors(pattern)
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"{name}: exhaustive search took {elapsed:.1f}s"
        assert result.minimum_size <= p.n_y, (
            f"{name}: minimum {result.minimum_size} exceeds heuristic {p.n_y}"
        )
        assert result.witnesses, f"{name}: no witness found"
        for witness in result.witnesses:
            c_pat = PatternMatrix(
                len(witness),
                pattern.rows,
                frozenset((r, s) for r, s in enumerate(witness)),
                frozenset(),
            )
            assert certify_sso(pattern, c_pat).sso, f"{name}: witness {witness} does not certify"
        lines.append(f"{name}: min={result.minimum_size} heuristic={p.n_y} ({elapsed:.2f}s)")
    assert lines, "no fixture small enough for the exhaustive baseline"
    print("ACCEPTANCE C8 exhaustive baseline: PASS: " + "; ".join(lines))


def test_criterion_9_negative_controls(fixtures_dir):
    for name in FIXTURE_NAMES:
        pattern = load_fixture_pattern(fixtures_dir / name)
        assert pattern.rows >= 1
        empty = PatternMatrix(0, pattern.rows, frozenset(), frozenset())
        assert not certify_sso(pattern, empty).sso, f"{name}: empty placement certified"
    scalar = PatternMatrix.from_rows(["*"])
    cert = certify_sso(scalar, PatternMatrix(0, 1, frozenset(), frozenset()))
    assert cert.colorable_a, "scalar star self-loop should color its own graph"
    assert not cert.colorable_abar, "the rewritten-diagonal graph must reject it"
    assert not cert.sso
    print("ACCEPTANCE C9 negative controls: PASS: empty placements rejected on all fixtures")
