import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucsense import (
    Entry,
    PatternMatrix,
    is_member,
    make_abar,
    observability_rank_test,
)
from strucsense.forcing import (
    Certificate,
    ClosureRun,
    ObservabilityGraph,
    build_observability_graph,
    force_closure_reference,
    replay_trace,
    sensor_states,
)
from strucsense.dot import trace_dot
from strucsense.netgraph import StateGraph, companion, to_pattern
from strucsense.placement import PipelineRun
from strucsense.wdn import parse_edge_list, parse_inp, state_graph
from generators import (
    colors_all,
    cyclic_inp_text,
    dense,
    given_run,
    graph_of,
    patterns_with_sensors,
    random_sensor_rows,
    random_symmetric_pattern,
    shuffled_closures,
    unit_rows,
    without_zero_diagonal,
)


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


def close(a, c):
    """Black states and trace of the closure of ``a`` measured by ``c``."""
    closed = ClosureRun(graph_of(a), sensor_states(c, a.rows))
    return frozenset(v for v, b in enumerate(closed.black) if b), tuple(closed.trace)


def colorable(a, c):
    return colors_all(graph_of(a), sensor_states(c, a.rows))


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

    def test_non_square_state_pattern_rejected(self):
        with pytest.raises(ValueError, match=re.escape("square state pattern required, got 2x3")):
            build_observability_graph(PatternMatrix(2, 3), PatternMatrix(0, 3))


class TestReplayTraceRejections:
    """Each step the rule forbids is refused by name; the benchmark's check of ``place`` output relies on it."""

    # state 0 points at 1 over a star and at 2 over a star; state 2 at 1 over an unknown; sensor 3 at 0
    GRAPH = ObservabilityGraph(3, 1, ((1, 2), (), (), (0,)), ((), (), (1,), ()))

    @pytest.mark.parametrize(
        "trace, message",
        [
            (((3, 0), (3, 0)), "step (3, 0) forces an already-black node"),
            (((2, 1),), "step (2, 1) is not a star edge"),
            (((0, 1),), "step (0, 1) applied while 2 is white"),
        ],
        ids=["already-black", "not-a-star-edge", "other-white-out-neighbour"],
    )
    def test_forbidden_step_rejected(self, trace, message):
        with pytest.raises(ValueError) as exc:
            replay_trace(self.GRAPH, trace)
        assert str(exc.value) == message


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
            assert not given_run(CYCLIC9, sensors([lone], 9)).certificate.sso

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
            g, graph = build_observability_graph(a, c), graph_of(a)
            for k in range(5):
                got = shuffled_closures(g, graph, sensor_states(c, a.rows), random.Random(seed * 100 + k))
                assert got == (expected, expected)

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


class TestEngine:
    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors(), st.integers(0, 2**32 - 1))
    def test_agrees_with_independent_checks(self, case, seed):
        a, measured = case
        for pattern in (a, make_abar(a)):
            graph = graph_of(pattern)
            closed = ClosureRun(graph, measured)
            g = build_observability_graph(pattern, sensors(measured, a.rows))
            black_set = frozenset(v for v, b in enumerate(closed.black) if b)
            reference = force_closure_reference(g)
            assert black_set == reference.black
            assert tuple(closed.trace) == reference.trace
            assert replay_trace(g, closed.trace) == black_set
            shuffled = force_closure_reference(g, order=random.Random(seed))
            assert replay_trace(g, shuffled.trace) == shuffled.black == black_set
            assert shuffled_closures(g, graph, measured, random.Random(seed)) == (black_set, black_set)

    def test_last_white_neighbour_across_an_unknown_edge_is_not_forced(self):
        """Node 0's last white out-neighbour, 2, is across a ``?`` edge: 0 must not force it."""
        a = PatternMatrix.from_rows(["000", "*00", "?00"])  # 0 -> 1 over a star, 0 -> 2 over an unknown
        graph = graph_of(a)
        expected = {(1,): [(3, 1)], (0, 1): [(3, 0), (4, 1)], (2,): [(3, 2), (0, 1)]}
        for measured, trace in expected.items():
            assert ClosureRun(graph, measured).trace == trace
            assert tuple(trace) == force_closure_reference(build_observability_graph(a, sensors(measured, 3))).trace

    def test_graph_is_reused_across_sensor_sets(self):
        graph = graph_of(CYCLIC9)
        assert colors_all(graph, (0, 2, 6))
        assert not colors_all(graph, ())
        assert colors_all(graph, (0, 2, 6))  # a run leaves the graph as it was


def assert_companion_is_make_abar(a: PatternMatrix, g: StateGraph) -> None:
    """The companion of ``g``, the graph of ``a``, is the graph of ``make_abar(a)``, and back again."""
    assert companion(g) == graph_of(make_abar(a))
    assert to_pattern(companion(g)) == make_abar(to_pattern(g))


class TestCompanion:
    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors(), st.data())
    def test_matches_make_abar_and_reference(self, case, data):
        a, measured = case
        diag = "".join(data.draw(st.lists(st.sampled_from("*?"), min_size=a.rows, max_size=a.rows)))
        for pattern in (a, without_zero_diagonal(a, diag)):
            assert_companion_is_make_abar(pattern, graph_of(pattern))
        c = sensors(list(dict.fromkeys(measured)), a.rows)  # a placement measures each state once
        cert = given_run(a, c).certificate
        assert cert.trace_a == force_closure_reference(build_observability_graph(a, c)).trace
        assert cert.trace_abar == force_closure_reference(build_observability_graph(make_abar(a), c)).trace

    def test_self_looped_pattern_shares_lists(self):
        a = sym([(0, 1), (1, 2)], 3, diag="*?*")
        graph = graph_of(a)
        twin = companion(graph)
        assert graph.inn is graph.out
        assert twin.out is graph.out and twin.inn is graph.inn
        assert twin.star_out is graph.star_out == ((1,), (0, 2), (1,))
        assert twin.loops == (Entry.UNKNOWN,) * 3
        assert ClosureRun(twin).trace == []  # every loop unknown: nothing forces from all-white

    def test_partly_looped_pattern_shares_every_list(self):
        for a in (sym([(0, 1), (1, 2)], 3, diag="*0?"), PatternMatrix.from_rows(["*0*", "*00", "0*?"])):
            graph = graph_of(a)
            twin = companion(graph)
            for name in ("star_nbrs", "nbrs", "star_out", "out", "inn"):
                assert getattr(twin, name) is getattr(graph, name), name
            assert twin.loops == (Entry.UNKNOWN, Entry.STAR, Entry.UNKNOWN)

    def test_symmetric_pattern_runs_on_its_state_graph_lists(self):
        g = graph_of(sym([(0, 1), (1, 2), (0, 2)], 3, diag="*0?"))
        assert g.star_out is g.star_nbrs and g.out is g.nbrs and g.inn is g.nbrs
        assert ClosureRun(g).graph is g and ClosureRun(companion(g)).graph.out is g.nbrs
        assert g.loops == (Entry.STAR, Entry.ZERO, Entry.UNKNOWN)


class TestResumedRun:
    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors(), st.randoms(use_true_random=False))
    def test_resumed_equals_from_scratch(self, case, rng):
        """Sensors added one at a time, in any order and through copies, close as all at once."""
        a, measured = case
        order = list(measured)
        rng.shuffle(order)
        for pattern in (a, make_abar(a)):
            graph = graph_of(pattern)
            expected = ClosureRun(graph, measured).black
            closed = ClosureRun(graph)
            for state in order:
                before = (closed.black[:], closed.white_out[:], closed.trace[:], closed.k)
                resumed = closed.copy()
                resumed.add(state)
                assert (closed.black, closed.white_out, closed.trace, closed.k) == before
                closed = resumed
                # each count is still the number of the node's white out-neighbours, its self-loop included
                black = closed.black
                assert closed.white_out == [sum(not black[x] for x in out) + (loop is not Entry.ZERO and not black[v])
                                            for v, (out, loop) in enumerate(zip(graph.out, graph.loops))]
            assert closed.black == expected
            assert (len(closed.trace) == a.rows) == all(expected)
            # the resumed trace is a valid closure of the sensors in the order they were added
            g = build_observability_graph(pattern, sensors(order, a.rows))
            assert replay_trace(g, closed.trace) == {v for v, b in enumerate(expected) if b}

    def test_a_state_outside_the_graph_is_refused(self):
        """A heap key ``v * n + u`` decodes to (v, u) only when 0 <= u < n."""
        graph = graph_of(TREE9)
        for bad in (9, -1):
            with pytest.raises(ValueError, match="outside 0..8"):
                ClosureRun(graph, (0, bad))
            closed = ClosureRun(graph, (0,))
            with pytest.raises(ValueError, match="outside 0..8"):
                closed.add(bad)
            assert (closed.k, closed.trace) == (1, ClosureRun(graph, (0,)).trace)

    def test_adding_a_black_state_changes_nothing(self):
        closed = ClosureRun(graph_of(TREE9), (0,))
        black, trace = closed.black[:], closed.trace[:]
        closed.add(1)  # forced by the sensor at 0 through 0 - 1
        assert (closed.black, closed.trace, closed.k) == (black, trace, 2)

    def test_a_graph_with_no_states_says_so(self):
        graph = StateGraph(0)
        closed = ClosureRun(graph)
        assert (closed.black, closed.trace) == ([], [])
        with pytest.raises(ValueError) as exc:
            ClosureRun(graph, (0,))
        assert str(exc.value) == "measured state 0 outside a graph with no states"
        closed = ClosureRun(graph)
        with pytest.raises(ValueError) as exc:
            closed.add(0)
        assert str(exc.value) == "measured state 0 outside a graph with no states"
        assert closed.k == 0


def random_pattern(rng: random.Random, n: int, symmetric: bool, diagonal: str) -> PatternMatrix:
    """``n`` states with off-diagonal cells drawn from ``0``, ``*`` and ``?``, and diagonal cells from ``diagonal``."""
    star, unknown = set(), set()
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            cell = rng.choice(diagonal) if i == j else rng.choice("000*?")
            {"*": star, "?": unknown}.get(cell, set()).update({(i, j), (j, i)} if symmetric else {(i, j)})
    return PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric)


def random_cases(count: int):
    """Seeded (pattern, sensors) pairs over both symmetries and three diagonals.

    The sensors repeat states and measure states the closure without sensors already blackens.
    """
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        a = random_pattern(rng, n, seed % 2 == 0, ("0", "*?", "0*?")[seed % 3])
        forced = [v for v, b in enumerate(ClosureRun(graph_of(a)).black) if b]
        measured = [rng.choice(forced) if forced and rng.random() < 0.3 else rng.randrange(n)
                    for _ in range(rng.randint(0, n + 2))]
        yield a, tuple(measured)


class TestSensorQueue:
    """Sensors wait outside the heap; the closure keeps the ascending-pair schedule of one heap holding all."""

    def test_traces_equal_the_reference(self):
        skipped = repeated = 0
        for a, measured in random_cases(240):
            for pattern in (a, make_abar(a)):
                graph = graph_of(pattern)
                closed = ClosureRun(graph, measured)
                reference = force_closure_reference(build_observability_graph(pattern, sensors(measured, a.rows)))
                assert tuple(closed.trace) == reference.trace
                assert frozenset(v for v, b in enumerate(closed.black) if b) == reference.black
                forcers = {v for v, _ in closed.trace}
                skipped += sum(a.rows + k not in forcers for k in range(len(measured)))
            repeated += len(set(measured)) < len(measured)
        assert skipped > 100 and repeated > 50  # sensors on black states and repeated states both ran

    def test_resumed_runs_equal_from_scratch_runs(self):
        for seed, (a, measured) in enumerate(random_cases(120)):
            rng = random.Random(seed)
            split = rng.randint(0, len(measured))
            for pattern in (a, make_abar(a)):
                graph = graph_of(pattern)
                fresh = ClosureRun(graph, measured)
                closed = ClosureRun(graph, measured[:split])
                for state in measured[split:]:
                    twin = closed.copy()
                    twin.add(state)
                    closed = twin
                assert (closed.black, closed.white_out, closed.k) == (fresh.black, fresh.white_out, fresh.k)
                assert sorted(u for _, u in closed.trace) == sorted(u for _, u in fresh.trace)
                g = build_observability_graph(pattern, sensors(measured, a.rows))
                assert replay_trace(g, closed.trace) == {v for v, b in enumerate(fresh.black) if b}

    def test_resumed_traces_are_pinned(self, fixtures_dir):
        """Traces of a run with sensors, extended through a copy; recorded before sensors left the heap."""
        graph = parse_edge_list((fixtures_dir / "cyclic9.json").read_text())
        closed = ClosureRun(graph, (0,)).copy()
        for state in (6, 2, 6):
            closed.add(state)
        assert (closed.trace, closed.k) == (
            [(0, 1), (9, 0), (1, 4), (2, 3), (3, 2), (5, 7), (6, 8), (7, 5), (4, 6)], 4)
        closed = ClosureRun(companion(graph), (0,)).copy()
        for state in (6, 2):
            closed.add(state)
        assert (closed.trace, closed.k) == (
            [(9, 0), (0, 1), (1, 4), (10, 6), (6, 8), (8, 7), (5, 5), (11, 2), (2, 3)], 3)

    def test_benchmark_scale_traces_are_pinned(self):
        """A 1687-state network like the benchmark's: both traces as the engine gave them before the queue."""
        cert = PipelineRun(state_graph(parse_inp(cyclic_inp_text(782, 124, 3)))).certificate
        assert (len(cert.trace_a), len(cert.trace_abar), cert.colorable_a, cert.colorable_abar) == (1687, 1577, True, False)
        assert [hashlib.sha256(json.dumps(trace).encode()).hexdigest() for trace in (cert.trace_a, cert.trace_abar)] == [
            "8e51c6950c09082578210a8c1a9fa56f50eacdb26e46c6901a5716e9239f737e",
            "63f8c4d9fb2186efd3d6e533fb08256b99ee5abe186e84d550d38baeba2b16d2",
        ]


class TestZeroFreeCompanion:
    """With no zero on the diagonal, as in every water network, the companion's loops are all unknown."""

    @pytest.mark.parametrize("name", ["path4.inp", "triangle_wdn.inp", "two_loop.inp"])
    def test_water_network_companion_is_make_abar(self, fixtures_dir, name):
        g = state_graph(parse_inp((fixtures_dir / name).read_text()))
        assert Entry.ZERO not in g.loops
        assert_companion_is_make_abar(to_pattern(g), g)
        assert companion(g).loops == (Entry.UNKNOWN,) * g.n
        assert ClosureRun(companion(g)).trace == []


class TestAbarInsideA:
    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors(), st.data())
    def test_abar_black_set_inside_a_black_set(self, case, data):
        """With no zero on the diagonal, Abar blackens no state A leaves white."""
        a, measured = case
        diag = "".join(data.draw(st.lists(st.sampled_from("*?"), min_size=a.rows, max_size=a.rows)))
        graph = graph_of(without_zero_diagonal(a, diag))
        black_a = ClosureRun(graph, measured).black
        black_abar = ClosureRun(companion(graph), measured).black
        assert all(in_a or not in_abar for in_a, in_abar in zip(black_a, black_abar))

    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors(max_states=7), st.data())
    def test_reference_closure_keeps_abar_inside_a(self, case, data):
        """The same containment from the slow reference closure, on which the exhaustive search skips A."""
        a, measured = case
        diag = "".join(data.draw(st.lists(st.sampled_from("*?"), min_size=a.rows, max_size=a.rows)))
        a = without_zero_diagonal(a, diag)
        c = sensors(measured, a.rows)
        black_a = force_closure_reference(build_observability_graph(a, c)).black
        assert force_closure_reference(build_observability_graph(make_abar(a), c)).black <= black_a

    def test_zero_diagonal_breaks_containment(self):
        graph = graph_of(PatternMatrix.from_rows(["0"]))
        assert not colors_all(graph, ()) and colors_all(companion(graph), ())


class TestTraceDot:
    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors())
    def test_draws_the_observability_graph(self, case):
        a, measured = case
        g = graph_of(a)
        trace = tuple(ClosureRun(g, measured).trace)
        obs = build_observability_graph(a, sensors(measured, a.rows))
        expected = [(v, u, style) for v in range(obs.n_nodes)
                    for style, targets in (("solid", obs.star_out[v]), ("dashed", obs.unknown_out[v]))
                    for u in targets]
        text = trace_dot(g, measured, trace, [str(i) for i in range(g.n)])
        arcs = re.findall(r'^  "(\d+)" -> "(\d+)" \[style=(\w+)(, penwidth=2.5, color=black)?\];$', text, re.M)
        assert [(int(v), int(u), style) for v, u, style, _ in arcs] == expected
        assert {(int(v), int(u)) for v, u, _, bold in arcs if bold} == set(trace)
        assert text.count("shape=hexagon") == len(measured)


class TestCertificate:
    def test_scalar_star_without_sensors(self):
        cert = given_run(PatternMatrix.from_rows(["*"]), sensors([], 1)).certificate
        assert cert.colorable_a          # the star self-loop forces itself
        assert not cert.colorable_abar   # the rewritten diagonal is unknown
        assert not cert.sso

    def test_tree_placement_certifies(self):
        cert = given_run(TREE9, sensors([0, 2], 9)).certificate
        assert cert.sso

    def test_cyclic_placement_certifies(self):
        cert = given_run(CYCLIC9, sensors([0, 2, 6], 9)).certificate
        assert cert.sso

    def test_all_states_sensed_certifies(self):
        cert = given_run(CYCLIC9, sensors(list(range(9)), 9)).certificate
        assert cert.sso

    def test_empty_placement_never_certifies(self):
        for pat in (TRIANGLE, TREE9, CYCLIC9, PatternMatrix.from_rows(["*"])):
            assert not given_run(pat, sensors([], pat.rows)).certificate.sso

    def test_extra_sensor_preserves_certificate(self):
        for seed in range(20):
            a = random_symmetric_pattern(seed, n_max=20)
            rng = random.Random(seed + 999)
            c = random_sensor_rows(rng, a.rows)
            if not given_run(a, c).certificate.sso:
                continue
            extra = rng.randrange(a.rows)
            measured = sorted({j for (_, j) in c.star} | {extra})
            bigger = sensors(measured, a.rows)
            assert given_run(a, bigger).certificate.sso

    @settings(max_examples=300, deadline=None)
    @given(patterns_with_sensors())
    def test_to_json_is_json_dumps_byte_for_byte(self, case):
        a, measured = case
        cert = given_run(a, sensors(list(dict.fromkeys(measured)), a.rows)).certificate
        assert cert.to_json() == json.dumps(cert.as_dict(), sort_keys=True)

    @pytest.mark.parametrize("cert", [
        Certificate(False, (), False, ()),
        Certificate(True, ((1, 0),), False, ()),
        Certificate(False, (), True, ((2, 0), (0, 1))),
        Certificate(True, ((0, 0),), True, ((2, 0), (0, 1))),
    ])
    def test_to_json_covers_empty_traces_and_every_verdict(self, cert):
        assert cert.to_json() == json.dumps(cert.as_dict(), sort_keys=True)
        assert json.loads(cert.to_json())["sso"] is cert.sso

    def test_json_wire_format(self):
        payload = json.loads(given_run(TREE9, sensors([0, 2], 9)).certificate.to_json())
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

        subsets = list(
            chain.from_iterable(combinations(range(n), k) for k in range(n + 1))
        )
        true_count = false_count = 0
        for pattern in self.all_symmetric_patterns(n):
            for subset in subsets:
                c = sensors(list(subset), n)
                run = given_run(pattern, c)
                if run.certificate.sso:
                    report = sample_and_check(run, trials=20, seed=hash((n, subset)) % 10_000)
                    assert report.passes == 20, (pattern.star, pattern.unknown, subset)
                    true_count += 1
                else:
                    realization, vector, lam = find_unobservable_realization(run)
                    realization, vector = dense(realization, vector, n)
                    assert is_member(realization, pattern)
                    assert np.allclose(realization @ vector, lam * vector)
                    assert not observability_rank_test(realization, unit_rows(c))
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
        cert = given_run(clique_pendant, sensors(list(measured), 5)).certificate
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
        cert = given_run(a, sensors(list(self.MEASURED), 14)).certificate
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
