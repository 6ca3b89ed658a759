import random
import re
from pathlib import Path

import numpy as np
import pytest

from strucsense import (
    PatternMatrix,
    PipelineRun,
    SensorPlacement,
    StateGraph,
    build_output_pattern,
    classify_nodes,
    count_bounds_ok,
    cycle_count,
    from_pattern,
    is_member,
    make_abar,
    place_cyclic,
    parse_edge_list,
    place_tree,
    removed_chords,
    sensor_count_report,
    spanning_tree_dfs,
)
from strucsense.cli import load_input
from strucsense.forcing import Certificate, build_observability_graph, force_closure_reference
from strucsense.netgraph import companion, to_pattern
from strucsense.wdn import parse_inp, state_graph
from generators import (
    TRIANGLE_WDN_INC,
    cyclic_inp_text,
    random_connected_pattern,
    random_tree_pattern,
    structured_pattern,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = sorted(path.name for path in FIXTURES.iterdir())
REFUSED_1X = "refused-1x"  # an L-town-size network whose leaf placement the certificate refuses
TRIANGLE = PatternMatrix.from_rows(["0**", "*0*", "**0"], symmetric=True)


def undirected(pairs, n):
    edges = set()
    for (i, j) in pairs:
        edges.add((i, j))
        edges.add((j, i))
    return StateGraph(n, frozenset(edges), frozenset())


PATH3 = undirected([(0, 1), (1, 2)], 3)
STAR13 = undirected([(0, 3), (1, 3), (2, 3)], 4)
# branched tree: three branches meeting at node 4, leaf ends 0, 2, 6
TREE9 = undirected([(0, 1), (1, 4), (2, 3), (3, 4), (4, 5), (5, 7), (7, 8), (8, 6)], 9)
# star path 0-1-2 closed by an unknown edge (0, 2)
STAR_PATH3_UNKNOWN_02 = StateGraph(3, PATH3.star_edges, frozenset({(0, 2), (2, 0)}))


class TestPlaceTree:
    def test_path_measures_one_end(self):
        p = place_tree(PATH3, spanning_tree_dfs(PATH3))
        assert p.measured == (0,)
        assert p.n_y == 1
        assert p.mode == "tree"

    def test_star_omits_highest_leaf(self):
        p = place_tree(STAR13, spanning_tree_dfs(STAR13))
        assert p.measured == (0, 1)
        assert PipelineRun(STAR13, given=p).certificate.sso

    def test_branched_tree_omits_highest(self):
        assert place_tree(TREE9, spanning_tree_dfs(TREE9)).measured == (0, 2)

    def test_single_node_gets_one_sensor(self):
        g = StateGraph(1, frozenset(), frozenset())
        assert place_tree(g, spanning_tree_dfs(g)).measured == (0,)

    def test_cyclic_input_rejected_with_witness(self):
        g = from_pattern(TRIANGLE)
        with pytest.raises(ValueError, match="chord"):
            place_tree(g, spanning_tree_dfs(g))

    def test_disconnected_input_rejected(self):
        g = undirected([(0, 1), (2, 3)], 4)
        with pytest.raises(ValueError, match="components"):
            place_tree(g, spanning_tree_dfs(g))

    @pytest.mark.parametrize(
        "g, t, message",
        [
            (TREE9, spanning_tree_dfs(PATH3), "tree over 3 nodes does not match graph with 9"),
            # every state meets two others once the unknown edge counts, so none is extreme
            (STAR_PATH3_UNKNOWN_02, spanning_tree_dfs(STAR_PATH3_UNKNOWN_02), "no extreme node to anchor the placement"),
        ],
        ids=["forest-size", "no-extreme-node"],
    )
    def test_refusals(self, g, t, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            place_tree(g, t)

    def test_every_random_tree_placement_certifies(self):
        # compact version of the executable tree guarantee; the acceptance
        # suite runs the full 200-seed sweep
        for seed in range(40):
            a = random_tree_pattern(seed, n_max=30)
            g = from_pattern(a)
            p = place_tree(g, spanning_tree_dfs(g))
            assert PipelineRun(g, given=p).certificate.sso, f"seed {seed}"


def tree_rule_by_classification(g: StateGraph) -> SensorPlacement:
    """The tree rule as ``classify_nodes`` states it: every extreme node but the highest-indexed one.

    The structural refusals and the tiny graphs read no extreme node, so
    ``place_tree`` answers those; past them, the extreme nodes come from a
    pass over the graph rather than from the forest.
    """
    t = spanning_tree_dfs(g)
    if cycle_count(g, t.roots) or len(t.roots) > 1 or g.n <= 1:
        return place_tree(g, t)
    extreme = classify_nodes(g).extreme
    if not extreme:
        raise ValueError("no extreme node to anchor the placement")
    return SensorPlacement(extreme[:-1], g.n, "tree")


def place_tree_of(g: StateGraph) -> SensorPlacement:
    return place_tree(g, spanning_tree_dfs(g))


def outcome(rule, g: StateGraph):
    """The rule's measured states, or the message it refused with."""
    try:
        return rule(g).measured
    except ValueError as exc:
        return str(exc)


def star_tree_with_unknowns(seed: int, every_leaf: bool = False) -> StateGraph:
    """A random star tree on 3 to 30 states plus off-diagonal unknown edges, some one-way.

    With ``every_leaf``, each leaf gets an unknown edge to a state it does not
    touch, so no state is extreme; otherwise a random few pairs get one.
    """
    rng = random.Random(seed)
    g = from_pattern(random_tree_pattern(seed, n_min=3, n_max=30))
    star = g.star_edges
    free = [(i, j) for i in range(g.n) for j in range(g.n) if i != j and (i, j) not in star]
    if every_leaf:
        picks = [rng.choice([(i, j) for (i, j) in free if i == v]) for v in range(g.n) if len(g.nbrs[v]) == 1]
    else:
        picks = rng.sample(free, min(len(free), rng.randint(0, 4)))
    unknown = set(g.unknown_edges)
    for (i, j) in picks:
        unknown |= {(i, j), (j, i)} if rng.random() < 0.5 else {(i, j)}
    return StateGraph(g.n, star, frozenset(unknown))


class TestTreeRuleReadsTheForest:
    """``place_tree`` reads the forest's leaves; the paper states the rule on the extreme nodes."""

    GRAPHS = (
        [from_pattern(random_tree_pattern(seed)) for seed in range(200)]
        + [star_tree_with_unknowns(seed) for seed in range(200)]
        + [star_tree_with_unknowns(seed, every_leaf=True) for seed in range(50)]
        + [from_pattern(random_connected_pattern(seed, n_max=20)) for seed in range(50)]
        + [PATH3, STAR13, TREE9, STAR_PATH3_UNKNOWN_02, StateGraph(0), StateGraph(1), undirected([(0, 1), (2, 3)], 4)]
    )

    def test_same_placement_or_same_refusal(self):
        for k, g in enumerate(self.GRAPHS):
            assert outcome(place_tree_of, g) == outcome(tree_rule_by_classification, g), f"graph {k}"

    def test_the_inputs_reach_every_outcome(self):
        outcomes = [outcome(place_tree_of, g) for g in self.GRAPHS]
        refusals = [o for o in outcomes if isinstance(o, str)]
        for start in ("graph is cyclic", "graph has 2 star components", "no extreme node"):
            assert any(o.startswith(start) for o in refusals), start
        accepted = [(g, o) for g, o in zip(self.GRAPHS, outcomes) if isinstance(o, tuple) and g.n > 1]
        # a leaf that an unknown edge also touches is not extreme: the forest's leaves are not all measured
        assert any(len(o) < len(spanning_tree_dfs(g).leaves) - 1 for g, o in accepted)


class TestPlaceCyclic:
    def test_triangle_measures_tree_leaves(self):
        g = from_pattern(TRIANGLE)
        p = place_cyclic(g, spanning_tree_dfs(g))
        assert p.measured == (0, 2)
        assert p.mode == "cyclic"

    def test_structured_wdn_measures_flow_and_tank_head(self):
        g = from_pattern(structured_pattern(TRIANGLE_WDN_INC))
        p = place_cyclic(g, spanning_tree_dfs(g))
        assert p.measured == (2, 7)
        cls = classify_nodes(g)
        assert p.n_y == cls.n_e + cycle_count(g)  # one extreme node plus one cycle

    def test_acyclic_input_measures_all_leaves(self):
        p = place_cyclic(TREE9, spanning_tree_dfs(TREE9))
        assert p.measured == (0, 2, 6)
        assert p.n_y == place_tree(TREE9, spanning_tree_dfs(TREE9)).n_y + 1

    def test_isolated_nodes_are_measured(self):
        g = undirected([(0, 1)], 3)  # node 2 isolated
        p = place_cyclic(g, spanning_tree_dfs(g))
        assert 2 in p.measured

    def test_multi_component_concatenates(self):
        g = undirected([(0, 1), (1, 2), (3, 4)], 5)
        p = place_cyclic(g, spanning_tree_dfs(g))
        assert p.measured == (0, 2, 3, 4)

    def test_depends_only_on_tree(self):
        g = from_pattern(TRIANGLE)
        t = spanning_tree_dfs(g)
        richer = StateGraph(3, g.star_edges, frozenset({(0, 0)}))
        assert place_cyclic(g, t).measured == place_cyclic(richer, t).measured

    def test_size_mismatch_rejected(self):
        g = from_pattern(TRIANGLE)
        with pytest.raises(ValueError):
            place_cyclic(g, spanning_tree_dfs(STAR13))


class TestOutputPattern:
    def test_single_sensor_row(self):
        p = SensorPlacement((1,), 3, "tree")
        c = build_output_pattern(p, 3)
        assert (c.rows, c.cols) == (1, 3)
        assert c.star == frozenset({(0, 1)})

    def test_one_star_per_row_distinct_columns(self):
        c = build_output_pattern(SensorPlacement((1, 3), 4, "tree"), 4)
        assert c.star == frozenset({(0, 1), (1, 3)})
        cols = [j for (_, j) in c.star]
        assert len(set(cols)) == len(cols)

    def test_unit_realization_has_full_row_rank(self):
        c = build_output_pattern(SensorPlacement((0, 2, 5), 6, "cyclic"), 6)
        x = np.zeros((3, 6))
        for (i, j) in c.star:
            x[i, j] = 1.0
        assert is_member(x, c)
        assert np.array_equal(x.sum(axis=1), np.ones(3))
        assert (x.sum(axis=0) <= 1).all()
        assert np.linalg.matrix_rank(x) == 3

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SensorPlacement((1, 1), 3, "tree")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_output_pattern(SensorPlacement((1,), 2, "tree"), 1)

    def test_placement_json_with_labels(self):
        """The payload ``place`` writes under ``placement``."""
        p = SensorPlacement((2, 7), 8, "cyclic")
        labels = [f"q:e{i+1}" for i in range(4)] + [f"h:{i+1}" for i in range(4)]
        assert p.as_dict(labels) == {"mode": "cyclic", "measured": [2, 7], "labels": ["q:e3", "h:4"]}


class TestSensorCountReport:
    def test_pure_tree_counts(self):
        t = spanning_tree_dfs(TREE9)
        p = place_cyclic(TREE9, t)
        report = sensor_count_report(TREE9, t, p)
        assert (report.extreme_nodes, report.cycles, report.sensors) == (3, 0, 3)
        assert report.bound_ok

    def test_structured_wdn_counts(self):
        g = from_pattern(structured_pattern(TRIANGLE_WDN_INC))
        t = spanning_tree_dfs(g)
        report = sensor_count_report(g, t, place_cyclic(g, t))
        assert (report.extreme_nodes, report.cycles, report.sensors) == (1, 1, 2)
        assert report.bound_ok

    def test_given_placement_counts_read_off_the_forest(self, fixtures_dir):
        g = parse_edge_list((fixtures_dir / "triangle3.json").read_text())
        run = PipelineRun(g, given=SensorPlacement((0,), g.n, "given"))
        assert run.tree == spanning_tree_dfs(g)
        report = run.counts
        assert (report.extreme_nodes, report.cycles, report.sensors) == (0, 1, 1)
        assert report.bound_ok
        assert PipelineRun(g, mode="tree").tree == run.tree  # every run has its forest

    @pytest.mark.parametrize(
        "text, measured, n_e",
        [
            ('{"n": 3, "star": [[0, 1], [1, 0]], "unknown": []}', (0, 1, 2), 2),  # state 2 has no neighbour
            ('{"n": 1, "star": [], "unknown": []}', (0,), 0),
            # no star edge at all: the forest is empty, though ``classify_nodes`` sees a path
            ('{"n": 3, "star": [], "unknown": [[0, 1], [1, 0], [1, 2], [2, 1]]}', (0, 1, 2), 2),
        ],
    )
    def test_isolated_states_count_in_the_envelope(self, text, measured, n_e):
        """The rule measures states with no star edge, so the envelope counts them; ``extreme_nodes`` does not."""
        run = PipelineRun(parse_edge_list(text))
        assert run.placement.measured == measured
        assert run.certificate.sso
        assert run.counts == (n_e, 0, len(measured), True)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_cycles_on_every_fixture(self, name):
        """The cycle count read off the roots equals the chords the forest drops and the graph's cycle count."""
        bundle = load_input(str(FIXTURES / name))
        run = PipelineRun(bundle.graph)
        g, t = bundle.graph, run.tree
        chords = len(g.undirected_star_pairs()) - len(t.tree_edges)
        assert run.counts.cycles == chords == len(removed_chords(g, t)) == cycle_count(g)
        assert run.counts == sensor_count_report(g, t, run.placement)

    def test_documented_benchmark_rows_satisfy_bounds(self):
        # counts reported for the published benchmark networks
        assert count_bounds_ok(3, 3, 6)        # Hanoi
        assert count_bounds_ok(2, 19, 24)      # AnyTown: more sensors than extremes+cycles-sum would suggest
        assert count_bounds_ok(16, 23, 39)     # Net3
        assert count_bounds_ok(78, 53, 131)    # D-town
        assert count_bounds_ok(37, 124, 162)   # L-town

    def test_bound_violations_detected(self):
        assert not count_bounds_ok(5, 0, 4)    # fewer sensors than extreme nodes
        assert not count_bounds_ok(2, 3, 2)    # cycles uncovered
        assert not count_bounds_ok(1, 1, 4)    # far above the envelope


def pipeline_graph(name: str) -> StateGraph:
    """A fixture's state graph, or that of ``REFUSED_1X``."""
    if name == REFUSED_1X:
        return state_graph(parse_inp(cyclic_inp_text(782, 124, 3)))
    return load_input(str(FIXTURES / name)).graph


def reference_certificate(run: PipelineRun) -> Certificate:
    """The record's certificate rebuilt by the slow reference closure, from A's pattern, Abar's and the output pattern."""
    a, n = to_pattern(run.graph), run.graph.n
    checks = [force_closure_reference(build_observability_graph(pattern, run.output)) for pattern in (a, make_abar(a))]
    return Certificate(*[field for check in checks for field in (check.black.issuperset(range(n)), check.trace)])


class TestPipelineCertificate:
    """The record certifies from its own two closed runs, as the slow reference closure does from the patterns."""

    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, REFUSED_1X])
    def test_certificate_reads_the_two_closed_runs(self, name):
        run = PipelineRun(pipeline_graph(name))
        cert = run.certificate
        assert cert.trace_a == tuple(run.a_run.trace)
        assert cert.trace_abar == tuple(run.abar_run.trace)
        assert (cert.colorable_a, cert.colorable_abar) == (all(run.a_run.black), all(run.abar_run.black))
        assert run.a_run.graph is run.graph
        assert run.abar_run.graph == companion(run.graph)
        assert run.a_run.k == run.abar_run.k == run.placement.n_y
        assert cert.sso is (name not in (REFUSED_1X, "refused33.json"))  # the one fixture the certificate refuses
        assert (run.stuck is None) is cert.sso

    @pytest.mark.parametrize("name, stuck", [("refused33.json", "a_run"), (REFUSED_1X, "abar_run"), ("cyclic9.json", None)])
    def test_stuck_is_the_first_run_left_with_a_white_state(self, name, stuck):
        """A's run when it leaves a state white, Abar then never closed; else Abar's when it does; else None."""
        run = PipelineRun(pipeline_graph(name))
        got = run.stuck
        if stuck == "a_run":
            assert "abar_run" not in run.__dict__
        assert got is (run.__dict__[stuck] if stuck else None)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_the_reference_closure_agrees_with_the_record_on_every_fixture(self, name):
        run = PipelineRun(pipeline_graph(name))
        assert reference_certificate(run) == run.certificate

    def test_the_reference_closure_agrees_with_the_record_on_the_cyclic_family(self):
        """The 200 random connected graphs of acceptance criterion 5, refused placements included."""
        refused = []
        for seed in range(200):
            run = PipelineRun(from_pattern(random_connected_pattern(seed)))
            assert reference_certificate(run) == run.certificate, f"seed {seed}"
            if not run.certificate.sso:
                refused.append(seed)
        assert len(refused) == 5  # the known gaps of the leaf rule: both verdicts are compared
