import importlib
import inspect
import pkgutil
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucsense import (
    Entry,
    PatternMatrix,
    StateGraph,
    check_preconditions,
    classify_nodes,
    connected_components_star,
    cycle_count,
    from_pattern,
    to_pattern,
)
import strucsense
from generators import TRIANGLE_WDN_INC, graph_of, random_symmetric_pattern, structured_pattern

# pattern with star couplings 0-1, 0-2 and an unknown coupling 1-2
MIXED = PatternMatrix.from_rows(["0**", "*0?", "*?0"], symmetric=True)
TRIANGLE = PatternMatrix.from_rows(["0**", "*0*", "**0"], symmetric=True)


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
        assert from_pattern(MIXED) == StateGraph(MIXED.rows, MIXED.star, MIXED.unknown)

    def test_transpose_flips_asymmetric(self):
        p = PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset())
        assert from_pattern(p, True).star_edges == frozenset({(1, 0)})
        with pytest.raises(ValueError, match="transpose"):
            from_pattern(p, False)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            from_pattern(PatternMatrix(2, 3))


@st.composite
def square_patterns(draw):
    """A square pattern of at most 8 states, symmetric or not, unflagged."""
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.sampled_from("000*?"), min_size=n * n, max_size=n * n))
    if draw(st.booleans()):  # mirror the upper triangle: symmetric but not flagged
        cells = [cells[min(i, j) * n + max(i, j)] for i in range(n) for j in range(n)]
    star = frozenset(divmod(k, n) for k, cell in enumerate(cells) if cell == "*")
    unknown = frozenset(divmod(k, n) for k, cell in enumerate(cells) if cell == "?")
    return PatternMatrix(n, n, star, unknown)


class TestSymmetryFromTheGraph:
    @settings(max_examples=300, deadline=None)
    @given(square_patterns())
    def test_lists_give_the_edge_sets_symmetry(self, a):
        g = from_pattern(a)
        mirrored = all((j, i) in a.star for (i, j) in a.star) and all((j, i) in a.unknown for (i, j) in a.unknown)
        assert g.is_symmetric() == mirrored
        assert all(type(nbrs) is tuple and list(nbrs) == sorted(nbrs) for nbrs in g.star_nbrs + g.nbrs)
        if mirrored:  # the directed lists are the undirected tuples themselves
            assert g.star_out is g.star_nbrs and g.out is g.nbrs and g.inn is g.nbrs

    @settings(max_examples=300, deadline=None)
    @given(square_patterns())
    def test_graph_alone_gives_the_pattern_report(self, a):
        report = check_preconditions(from_pattern(a))
        unmirrored = [(i, j) for (i, j) in a.star if (j, i) not in a.star]
        unmirrored += [(i, j) for (i, j) in a.unknown if (j, i) not in a.unknown]
        assert report.asymmetric_at == min(unmirrored, default=None)


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
        g = from_pattern(structured_pattern(TRIANGLE_WDN_INC))
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
            isolated = sum(1 for v in range(g.n) if not g.nbrs[v])
            assert cls.n_e + cls.n_i + degree_two + isolated == g.n


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
        report = check_preconditions(graph_of(TRIANGLE))
        assert report.symmetric and report.fully_connected
        assert not report.has_extreme
        assert report.classification.extreme == ()

    def test_path_satisfies_all(self):
        p = PatternMatrix.from_rows(["0*0", "*0*", "0*0"], symmetric=True)
        report = check_preconditions(graph_of(p))
        assert report.symmetric
        assert report.fully_connected
        assert report.has_extreme

    def test_block_diagonal_not_connected(self):
        rows = [
            "0**000",
            "*0*000",
            "**0000",
            "0000**",
            "000*0*",
            "000**0",
        ]
        report = check_preconditions(graph_of(PatternMatrix.from_rows(rows, symmetric=True)))
        assert not report.fully_connected
        assert len(report.components) == 2

    def test_asymmetric_witness(self):
        p = PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset())
        report = check_preconditions(graph_of(p))
        assert not report.symmetric
        assert report.asymmetric_at == (0, 1)


def public_functions():
    """(dotted name, function) of every public function and method the package defines."""
    for info in pkgutil.iter_modules(strucsense.__path__):
        module = importlib.import_module(f"strucsense.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # classmethods and staticmethods
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{info.name}.{name}.{attr}", fn


def parameter_types(fn) -> dict:
    """Parameter name -> the classes its annotation names (a union contributes each member)."""
    hints = typing.get_type_hints(fn)
    hints.pop("return", None)
    return {name: set(typing.get_args(hint)) or {hint} for name, hint in hints.items()}


class TestPatternBoundary:
    @settings(max_examples=300, deadline=None)
    @given(square_patterns())
    def test_to_pattern_inverts_the_transposed_graph(self, a):
        assert to_pattern(from_pattern(a)) == a

    def test_no_function_takes_both_a_state_pattern_and_a_graph(self):
        """Every stage takes the state graph alone; a pattern enters only through ``from_pattern``."""
        both = []
        for name, fn in public_functions():
            types = parameter_types(fn)
            graphs = [p for p, kinds in types.items() if StateGraph in kinds]
            patterns = [p for p, kinds in types.items() if PatternMatrix in kinds]
            if graphs and patterns:
                both.append(f"{name}{inspect.signature(fn)}")
        assert both == []
        assert "placement.place_cyclic" in dict(public_functions())  # the walk reaches the stages
