import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucsense import (
    Entry,
    PatternMatrix,
    StateGraph,
    build_structured_wdn,
    check_preconditions,
    classify_nodes,
    connected_components_star,
    cycle_count,
    from_pattern,
)
from generators import random_symmetric_pattern

# pattern with star couplings 0-1, 0-2 and an unknown coupling 1-2
MIXED = PatternMatrix.from_rows(["0**", "*0?", "*?0"], symmetric=True)
TRIANGLE = PatternMatrix.from_rows(["0**", "*0*", "**0"], symmetric=True)

# incidence of the triangular tank-fed toy network, frozen layout
TRIANGLE_WDN_INC = np.array(
    [
        [-1, 1, 1, 0],
        [0, 0, -1, 1],
        [0, -1, 0, -1],
        [1, 0, 0, 0],
    ],
    dtype=float,
)


def path_graph(n: int) -> StateGraph:
    edges = set()
    for i in range(n - 1):
        edges.add((i, i + 1))
        edges.add((i + 1, i))
    return StateGraph(n, frozenset(edges), frozenset())


class TestFromPattern:
    def test_star_and_unknown_edges_split(self):
        g = from_pattern(MIXED)
        assert g.undirected_star_pairs() == {(0, 1), (0, 2)}
        assert (1, 2) in g.unknown_edges and (2, 1) in g.unknown_edges

    def test_star_diagonal_gives_self_loops_only(self):
        p = PatternMatrix(3, 3, frozenset({(i, i) for i in range(3)}), frozenset())
        g = from_pattern(p)
        assert g.star_edges == frozenset({(0, 0), (1, 1), (2, 2)})
        assert not g.unknown_edges

    def test_transpose_irrelevant_for_symmetric(self):
        assert from_pattern(MIXED, True) == from_pattern(MIXED, False)

    def test_transpose_flips_asymmetric(self):
        p = PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset())
        assert (1, 0) in from_pattern(p, True).star_edges
        assert (0, 1) in from_pattern(p, False).star_edges

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            from_pattern(PatternMatrix(2, 3))


@st.composite
def symmetric_patterns(draw):
    """A symmetric pattern of at most 10 states, any diagonal, zeros included."""
    n = draw(st.integers(1, 10))
    cells = draw(st.lists(st.sampled_from("000*?"), min_size=n * n, max_size=n * n))
    entry = {(i, j): cells[min(i, j) * n + max(i, j)] for i in range(n) for j in range(n)}
    star = frozenset(p for p, cell in entry.items() if cell == "*")
    unknown = frozenset(p for p, cell in entry.items() if cell == "?")
    return PatternMatrix(n, n, star, unknown, symmetric=True)


class TestFromPatternAgreesWithValidatingConstructor:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_patterns())
    def test_same_graph(self, a):
        fast, checked = from_pattern(a, transpose=True), StateGraph(a.rows, a.star, a.unknown)
        assert fast.n == checked.n
        assert (fast.star_edges, fast.unknown_edges) == (checked.star_edges, checked.unknown_edges)
        assert fast.star_nbrs == checked.star_nbrs
        assert fast.nbrs == checked.nbrs
        assert fast.loops == checked.loops
        assert all(type(nbrs) is tuple and list(nbrs) == sorted(nbrs) for nbrs in fast.star_nbrs)
        for g in (fast, checked):  # symmetric: the directed lists are the undirected tuples
            assert g.star_out is g.star_nbrs and g.out is g.nbrs and g.inn is g.nbrs


class TestDirectedLists:
    def test_asymmetric_graph(self):
        g = StateGraph(3, frozenset({(0, 1), (0, 0)}), frozenset({(1, 2), (2, 2)}))
        assert g.star_out == ((1,), (), ())
        assert g.out == ((1,), (2,), ())
        assert g.inn == ((), (0,), (1,))
        assert g.star_nbrs == ((1,), (0,), ())
        assert g.nbrs == ((1,), (0, 2), (1,))
        assert g.loops == (Entry.STAR, Entry.ZERO, Entry.UNKNOWN)


class TestClassifyNodes:
    def test_path_ends_are_extreme(self):
        cls = classify_nodes(path_graph(3))
        assert cls.extreme == (0, 2)
        assert cls.intersection == ()

    def test_star_center_is_intersection(self):
        g = StateGraph(4, frozenset({(0, 3), (3, 0), (1, 3), (3, 1), (2, 3), (3, 2)}), frozenset())
        cls = classify_nodes(g)
        assert cls.extreme == (0, 1, 2)
        assert cls.intersection == (3,)

    def test_structured_wdn_roles(self):
        g = from_pattern(build_structured_wdn(TRIANGLE_WDN_INC), transpose=True)
        cls = classify_nodes(g)
        assert cls.extreme == (7,)        # the tank head is the only extreme state
        assert cls.intersection == (4,)   # the junction joining three pipes

    def test_self_loops_do_not_count(self):
        g = StateGraph(2, frozenset({(0, 0), (0, 1), (1, 0)}), frozenset({(1, 1)}))
        cls = classify_nodes(g)
        assert cls.extreme == (0, 1)

    def test_degree_accounting_partitions_nodes(self):
        for seed in range(30):
            p = random_symmetric_pattern(seed, n_max=30)
            g = from_pattern(p)
            cls = classify_nodes(g)
            degree_two = sum(1 for v in range(g.n) if len(g.nbrs[v]) == 2)
            assert cls.n_e + cls.n_i + degree_two + len(cls.isolated) == g.n


class TestComponents:
    def test_triangle_is_one_component(self):
        assert connected_components_star(from_pattern(TRIANGLE)) == [[0, 1, 2]]

    def test_two_disjoint_edges(self):
        g = StateGraph(4, frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}), frozenset())
        assert connected_components_star(g) == [[0, 1], [2, 3]]

    def test_unknown_edges_do_not_connect(self):
        g = from_pattern(MIXED)
        # the star edges alone already join everything here
        assert connected_components_star(g) == [[0, 1, 2]]
        only_unknown = StateGraph(3, frozenset(), frozenset({(1, 2), (2, 1)}))
        assert connected_components_star(only_unknown) == [[0], [1], [2]]


class TestCycleCount:
    def test_triangle_has_one(self):
        assert cycle_count(from_pattern(TRIANGLE)) == 1

    def test_trees_have_none(self):
        assert cycle_count(path_graph(6)) == 0

    def test_self_loops_ignored(self):
        p = PatternMatrix.from_rows(["***", "**0", "*00"], symmetric=True)
        assert cycle_count(from_pattern(p)) == 0  # edges 0-1, 0-2 plus loops

    def test_forest_counts_per_component(self):
        g = StateGraph(
            6,
            frozenset(
                {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (3, 4), (4, 3), (4, 5), (5, 4), (3, 5), (5, 3)}
            ),
            frozenset(),
        )
        assert cycle_count(g) == 2  # two disjoint triangles


class TestPreconditions:
    def test_triangle_lacks_extreme_node(self):
        report = check_preconditions(TRIANGLE)
        assert report.symmetric and report.fully_connected
        assert not report.has_extreme
        assert report.extreme_nodes == ()

    def test_path_satisfies_all(self):
        p = PatternMatrix.from_rows(["0*0", "*0*", "0*0"], symmetric=True)
        report = check_preconditions(p)
        assert report.all_ok

    def test_block_diagonal_not_connected(self):
        rows = [
            "0**000",
            "*0*000",
            "**0000",
            "0000**",
            "000*0*",
            "000**0",
        ]
        report = check_preconditions(PatternMatrix.from_rows(rows, symmetric=True))
        assert not report.fully_connected
        assert len(report.components) == 2

    def test_asymmetric_witness(self):
        p = PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset())
        report = check_preconditions(p)
        assert not report.symmetric
        assert report.asymmetric_at == (0, 1)
