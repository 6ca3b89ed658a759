import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strucsense.forcing
from strucsense import (
    Entry,
    PatternMatrix,
    SensorPlacement,
    build_output_pattern,
    certify_sso,
    from_pattern,
    is_member,
    make_abar,
    observability_rank_test,
)
from strucsense.forcing import (
    build_observability_graph,
    compile_pattern,
    force_closure_reference,
    replay_trace,
    sensor_states,
)
from generators import random_sensor_rows, random_symmetric_pattern


def sym(pairs, n, diag=""):
    star, unknown = set(), set()
    for (i, j) in pairs:
        star.add((i, j))
        star.add((j, i))
    for i, ch in enumerate(diag):
        if ch == "*":
            star.add((i, i))
        elif ch == "?":
            unknown.add((i, i))
    return PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric=True)


def sensors(measured, n):
    return PatternMatrix(
        len(measured), n, frozenset((r, s) for r, s in enumerate(measured)), frozenset()
    )


def close(a, c, rng=None):
    """Black states and trace of the compiled closure of ``a`` measured by ``c``."""
    black, trace = compile_pattern(a).run(sensor_states(a, c), rng)
    return frozenset(v for v, b in enumerate(black) if b), tuple(trace)


def colorable(a, c):
    return compile_pattern(a).colors_all(sensor_states(a, c))


# branched 9-node tree with leaves 0, 2, 6 and junction node 4
TREE9 = sym([(0, 1), (1, 4), (2, 3), (3, 4), (4, 5), (5, 7), (7, 8), (8, 6)], 9)
# same skeleton with two cycle-closing edges at 2 and 6
CYCLIC9 = sym(
    [(0, 1), (1, 4), (2, 3), (3, 4), (4, 5), (5, 7), (7, 8), (8, 6), (2, 4), (6, 4)], 9
)
TRIANGLE = sym([(0, 1), (0, 2), (1, 2)], 3)


class TestBuildObservabilityGraph:
    def test_tree_with_two_sensors(self):
        g = build_observability_graph(TREE9, sensors([0, 6], 9))
        assert g.n_states == 9 and g.n_sensors == 2
        assert g.star_out[9] == (0,)
        assert g.star_out[10] == (6,)
        assert g.unknown_out[9] == () and g.unknown_out[10] == ()

    def test_no_sensors(self):
        g = build_observability_graph(TRIANGLE, sensors([], 3))
        assert g.n_sensors == 0 and g.n_nodes == 3

    def test_triangle_plus_two(self):
        g = build_observability_graph(TRIANGLE, sensors([0, 2], 3))
        assert g.n_nodes == 5
        assert g.star_out[3] == (0,) and g.star_out[4] == (2,)

    def test_transpose_convention(self):
        a = PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset())
        g = build_observability_graph(a, sensors([], 2))
        assert g.star_out[1] == (0,)  # entry (0, 1) becomes out-edge 1 -> 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_observability_graph(TRIANGLE, sensors([0], 4))

    def test_row_without_star_rejected(self):
        empty_row = PatternMatrix(1, 3, frozenset(), frozenset())
        with pytest.raises(ValueError, match="0 stars"):
            build_observability_graph(TRIANGLE, empty_row)

    def test_multi_star_row_rejected(self):
        two = PatternMatrix(1, 3, frozenset({(0, 0), (0, 1)}), frozenset())
        with pytest.raises(ValueError, match="2 stars"):
            build_observability_graph(TRIANGLE, two)

    def test_unknown_in_output_rejected(self):
        c = PatternMatrix(1, 3, frozenset({(0, 0)}), frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="zeros and stars"):
            build_observability_graph(TRIANGLE, c)


class TestForceClosure:
    def test_star_self_loop_forces_itself(self):
        a = PatternMatrix.from_rows(["*"])
        black, trace = close(a, sensors([], 1))
        assert black == frozenset({0})
        assert trace == ((0, 0),)

    def test_unknown_self_loop_stays_white(self):
        a = PatternMatrix.from_rows(["?"])
        assert close(a, sensors([], 1))[0] == frozenset()

    def test_sensor_chain_colors_path(self):
        path = sym([(0, 1), (1, 2)], 3)
        assert colorable(path, sensors([0], 3))

    def test_no_sensors_unknown_diagonal_stuck(self):
        a = sym([(0, 1), (1, 2)], 3, diag="???")
        assert not colorable(a, sensors([], 3))

    def test_branched_tree_with_two_leaf_sensors(self):
        # sensors at two of the three leaves suffice: branches fill in and
        # the junction node unlocks the unmeasured branch
        c = sensors([0, 6], 9)
        black, trace = close(TREE9, c)
        assert colorable(TREE9, c)
        assert replay_trace(build_observability_graph(TREE9, c), trace) == black
        # the sensors are load-bearing: without them the tree stays white
        assert not colorable(TREE9, sensors([], 9))

    def test_cyclic_with_three_sensors_colors_fully(self):
        c = sensors([0, 2, 6], 9)
        _, trace = close(CYCLIC9, c)
        assert colorable(CYCLIC9, c)
        assert len(trace) == 9  # every state forced exactly once
        # a lone sensor passes the plain graph but not the full certificate
        for lone in (0, 2, 6):
            assert not certify_sso(CYCLIC9, sensors([lone], 9)).sso

    def test_trace_replays_exactly(self):
        for seed in range(20):
            rng = random.Random(seed)
            a = random_symmetric_pattern(seed, n_max=30)
            c = random_sensor_rows(rng, a.rows)
            black, trace = close(a, c)
            assert replay_trace(build_observability_graph(a, c), trace) == black

    def test_each_node_forced_at_most_once(self):
        forced = [u for (_, u) in close(CYCLIC9, sensors([0, 2, 6], 9))[1]]
        assert len(forced) == len(set(forced))


class TestClosureConfluence:
    def test_final_set_independent_of_order(self):
        for seed in range(15):
            rng = random.Random(seed)
            a = random_symmetric_pattern(seed, n_max=25)
            c = random_sensor_rows(rng, a.rows)
            expected = close(a, c)[0]
            for k in range(5):
                assert close(a, c, random.Random(seed * 100 + k))[0] == expected

    def test_worklist_matches_slow_reference(self):
        for seed in range(15):
            rng = random.Random(seed)
            a = random_symmetric_pattern(seed, n_max=20)
            c = random_sensor_rows(rng, a.rows)
            g = build_observability_graph(a, c)
            black, trace = close(a, c)
            slow = force_closure_reference(g)
            assert black == slow.black
            assert trace == slow.trace  # same ascending-pair schedule
            shuffled = force_closure_reference(g, order=random.Random(seed))
            assert shuffled.black == black


@st.composite
def patterns_with_sensors(draw):
    """A pattern of at most 10 states, symmetric or not, any diagonal, and sensors.

    Sensor tuples come in any order and may measure a state twice; both are
    legal output patterns.
    """
    n = draw(st.integers(1, 10))
    cells = draw(st.lists(st.sampled_from("000*?"), min_size=n * n, max_size=n * n))
    symmetric = draw(st.booleans())
    star, unknown = set(), set()
    for i in range(n):
        for j in range(n):
            cell = cells[min(i, j) * n + max(i, j)] if symmetric else cells[i * n + j]
            if cell == "*":
                star.add((i, j))
            elif cell == "?":
                unknown.add((i, j))
    a = PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric)
    measured = tuple(draw(st.lists(st.integers(0, n - 1), max_size=n)))
    return a, measured


class TestCompiledEngine:
    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors(), st.integers(0, 2**32 - 1))
    def test_agrees_with_independent_checks(self, case, seed):
        a, measured = case
        for pattern in (a, make_abar(a)):
            compiled = compile_pattern(pattern)
            black, trace = compiled.run(measured)
            g = build_observability_graph(pattern, sensors(measured, a.rows))
            black_set = frozenset(v for v, b in enumerate(black) if b)
            reference = force_closure_reference(g)
            assert black_set == reference.black
            assert tuple(trace) == reference.trace
            assert replay_trace(g, trace) == black_set
            assert compiled.colors_all(measured) == (len(black_set) == a.rows)
            _, shuffled = compiled.run(measured, random.Random(seed))
            assert replay_trace(g, shuffled) == black_set

    def test_compiled_graph_is_reused_across_sensor_sets(self):
        compiled = compile_pattern(CYCLIC9)
        assert compiled.colors_all((0, 2, 6))
        assert not compiled.colors_all(())
        assert compiled.colors_all((0, 2, 6))  # a run leaves the compiled graph as it was

    def test_non_square_pattern_rejected(self):
        with pytest.raises(ValueError, match="square"):
            compile_pattern(PatternMatrix(2, 3))


class TestCompanion:
    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors())
    def test_matches_compiled_abar_and_reference(self, case):
        a, measured = case
        derived, compiled = compile_pattern(a).companion(), compile_pattern(make_abar(a))
        for name in ("star_out", "out", "inn", "loops", "out_degree", "seeds"):
            assert getattr(derived, name) == getattr(compiled, name), name
        c = sensors(measured, a.rows)
        cert = certify_sso(a, c)
        assert cert.trace_a == force_closure_reference(build_observability_graph(a, c)).trace
        assert cert.trace_abar == force_closure_reference(build_observability_graph(make_abar(a), c)).trace

    def test_self_looped_pattern_shares_lists(self):
        a = sym([(0, 1), (1, 2)], 3, diag="*?*")
        graph = compile_pattern(a)
        companion = graph.companion()
        assert graph.inn is graph.out
        assert companion.out is graph.out and companion.inn is graph.inn
        assert companion.star_out is graph.star_out == ((1,), (0, 2), (1,))
        assert companion.loops == (Entry.UNKNOWN,) * 3
        assert companion.seeds == ()

    def test_partly_looped_pattern_shares_every_list(self):
        for a in (sym([(0, 1), (1, 2)], 3, diag="*0?"), PatternMatrix.from_rows(["*0*", "*00", "0*?"])):
            graph = compile_pattern(a)
            companion = graph.companion()
            for name in ("star_out", "out", "inn"):
                assert getattr(companion, name) is getattr(graph, name), name
            assert companion.loops == (Entry.UNKNOWN, Entry.STAR, Entry.UNKNOWN)
            assert companion.out_degree == tuple(len(out) + 1 for out in graph.out)

    def test_symmetric_pattern_runs_on_its_state_graph_lists(self, monkeypatch):
        built = []

        def recording(*args, **kwargs):
            built.append(from_pattern(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(strucsense.forcing, "from_pattern", recording)
        compiled = compile_pattern(sym([(0, 1), (1, 2), (0, 2)], 3, diag="*0?"))
        (g,) = built
        assert compiled.star_out is g.star_nbrs and compiled.out is g.nbrs and compiled.inn is g.nbrs
        assert compiled.loops is g.loops == (Entry.STAR, Entry.ZERO, Entry.UNKNOWN)


class TestCertificate:
    def test_scalar_star_without_sensors(self):
        cert = certify_sso(PatternMatrix.from_rows(["*"]), sensors([], 1))
        assert cert.colorable_a          # the star self-loop forces itself
        assert not cert.colorable_abar   # the rewritten diagonal is unknown
        assert not cert.sso

    def test_tree_placement_certifies(self):
        cert = certify_sso(TREE9, sensors([0, 2], 9))
        assert cert.sso

    def test_cyclic_placement_certifies(self):
        cert = certify_sso(CYCLIC9, sensors([0, 2, 6], 9))
        assert cert.sso

    def test_all_states_sensed_certifies(self):
        cert = certify_sso(CYCLIC9, sensors(list(range(9)), 9))
        assert cert.sso

    def test_empty_placement_never_certifies(self):
        for pat in (TRIANGLE, TREE9, CYCLIC9, PatternMatrix.from_rows(["*"])):
            assert not certify_sso(pat, sensors([], pat.rows)).sso

    def test_extra_sensor_preserves_certificate(self):
        for seed in range(20):
            a = random_symmetric_pattern(seed, n_max=20)
            rng = random.Random(seed + 999)
            c = random_sensor_rows(rng, a.rows)
            if not certify_sso(a, c).sso:
                continue
            extra = rng.randrange(a.rows)
            measured = sorted({j for (_, j) in c.star} | {extra})
            bigger = sensors(measured, a.rows)
            assert certify_sso(a, bigger).sso

    def test_json_wire_format(self):
        payload = json.loads(certify_sso(TREE9, sensors([0, 2], 9)).to_json())
        assert payload["sso"] is True
        assert [g["name"] for g in payload["graphs"]] == ["A", "Abar"]
        for g in payload["graphs"]:
            assert isinstance(g["colorable"], bool)
            assert all(len(step) == 2 for step in g["trace"])


class TestCertificateExactness:
    """Sweep every symmetric pattern on 2 and 3 states with every sensor
    subset: a true certificate must survive realization sampling, a false
    one must come with a constructible unobservable realization."""

    @staticmethod
    def all_symmetric_patterns(n):
        from itertools import combinations, product

        positions = list(combinations(range(n), 2))
        for diag in product("0*?", repeat=n):
            for off in product("0*?", repeat=len(positions)):
                star, unknown = set(), set()
                for i, ch in enumerate(diag):
                    if ch == "*":
                        star.add((i, i))
                    elif ch == "?":
                        unknown.add((i, i))
                for (i, j), ch in zip(positions, off):
                    if ch == "*":
                        star.update({(i, j), (j, i)})
                    elif ch == "?":
                        unknown.update({(i, j), (j, i)})
                yield PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric=True)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sweep(self, n):
        from itertools import chain, combinations

        from strucsense import find_unobservable_realization, sample_and_check
        from strucsense.oracle import realize_unit_output

        subsets = list(
            chain.from_iterable(combinations(range(n), k) for k in range(n + 1))
        )
        true_count = false_count = 0
        for pattern in self.all_symmetric_patterns(n):
            for subset in subsets:
                c = sensors(list(subset), n)
                cert = certify_sso(pattern, c)
                if cert.sso:
                    report = sample_and_check(pattern, c, trials=20, seed=hash((n, subset)) % 10_000)
                    assert report.passes == 20, (pattern.star, pattern.unknown, subset)
                    true_count += 1
                else:
                    realization, vector, lam = find_unobservable_realization(pattern, c)
                    assert is_member(realization, pattern)
                    assert np.allclose(realization @ vector, lam * vector)
                    assert not observability_rank_test(realization, realize_unit_output(c))
                    false_count += 1
        assert true_count and false_count  # both verdicts exercised


class TestMinimalHeuristicGap:
    """Smallest graph where tree-leaf placement fails: a 4-clique with a
    pendant node. The DFS tree is a path, leaving the clique's twin nodes 1
    and 2 unmeasured; swapping them fixes any equal-weight realization, so
    an invisible eigenvector exists."""

    def test_certificate_and_numerics_agree(self):
        clique_pendant = sym(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)], 5
        )
        # ascending DFS gives the path 4-0-1-2-3, so leaves are 3 and 4
        measured = (3, 4)
        cert = certify_sso(clique_pendant, sensors(list(measured), 5))
        assert cert.colorable_a and not cert.colorable_abar
        assert not cert.sso

        x = np.zeros((5, 5))
        for (i, j) in clique_pendant.star:
            x[i, j] = 1.0
        vec = np.array([0.0, 1.0, -1.0, 0.0, 0.0])
        assert is_member(x, clique_pendant)
        assert np.allclose(x @ vec, -vec)
        c = np.zeros((2, 5))
        c[0, 3] = c[1, 4] = 1.0
        assert np.allclose(c @ vec, 0.0)
        assert not observability_rank_test(x, c)


class TestKnownHeuristicGap:
    """A leaf placement that satisfies every structural precondition yet is
    not strongly structurally observable; the certificate and the numeric
    rank test must both reject it."""

    PAIRS = [
        (0, 1), (0, 2), (0, 3), (0, 6), (2, 4), (2, 5), (2, 9), (3, 5), (3, 9),
        (3, 11), (4, 7), (4, 8), (4, 12), (5, 13), (7, 11), (9, 10),
    ]
    DIAG = "******??????**"
    MEASURED = (1, 6, 8, 10, 12, 13)  # tree leaves of the ascending DFS

    def test_certificate_rejects(self):
        a = sym(self.PAIRS, 14, diag=self.DIAG)
        cert = certify_sso(a, sensors(list(self.MEASURED), 14))
        assert cert.colorable_a
        assert not cert.colorable_abar
        assert not cert.sso

    def test_numeric_counterexample_confirms(self):
        a = sym(self.PAIRS, 14, diag=self.DIAG)
        x = np.zeros((14, 14))
        for (i, j) in a.star:
            x[i, j] = 1.0
        x[3, 3] = 2.0
        x[7, 7] = 2.0
        x[11, 11] = 3.0
        assert is_member(x, a)
        vec = np.zeros(14)
        vec[2], vec[3], vec[7], vec[11] = 1.0, -1.0, -1.0, 1.0
        assert np.allclose(x @ vec, vec)  # eigenvector, eigenvalue 1
        c = np.zeros((6, 14))
        for r, s in enumerate(self.MEASURED):
            c[r, s] = 1.0
        assert np.allclose(c @ vec, 0.0)  # invisible to every sensor
        assert not observability_rank_test(x, c)
