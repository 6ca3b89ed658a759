import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strucsense.placement
from strucsense import (
    PatternMatrix,
    SpanningTree,
    StateGraph,
    cycle_count,
    from_pattern,
    SensorPlacement,
    place_cyclic,
    removed_chords,
    spanning_tree_dfs,
)
from generators import (
    TRIANGLE_WDN_INC,
    degree_leaves,
    edge_set_degrees,
    hand_built_forest,
    random_symmetric_pattern,
    structured_pattern,
)

TRIANGLE = PatternMatrix.from_rows(["0**", "*0*", "**0"], symmetric=True)


def recursive_reference(g: StateGraph) -> tuple:
    """Plain recursive DFS with the same tie-breaking, as an independent check: its forest and its tree edges."""
    adj = [set() for _ in range(g.n)]
    for (i, j) in g.star_edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    visited = [False] * g.n
    parent, roots, edges = [None] * g.n, [], set()

    def visit(v):
        visited[v] = True
        for u in sorted(adj[v]):
            if not visited[u]:
                parent[u] = v
                edges.add((min(v, u), max(v, u)))
                visit(u)

    for root in range(g.n):
        if not visited[root]:
            roots.append(root)
            visit(root)
    return hand_built_forest(parent, roots), edges


@st.composite
def sparse_graphs(draw, max_n: int = 30) -> StateGraph:
    """Random directed pairs, self-loops and unknown edges included: often disconnected, with isolated nodes."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return StateGraph(0)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    star = frozenset(draw(st.lists(pair, max_size=2 * n)))
    unknown = frozenset(draw(st.lists(pair, max_size=n))) - star
    return StateGraph(n, star, unknown)


def union_find_acyclic(edges) -> bool:
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


class TestSpanningTree:
    def test_triangle_drops_one_edge(self):
        t = spanning_tree_dfs(from_pattern(TRIANGLE))
        assert t.tree_edges == frozenset({(0, 1), (1, 2)})
        assert t.roots == (0,)
        assert t.parent == (None, 0, 1)

    def test_tree_input_kept_verbatim(self):
        edges = frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (1, 3), (3, 1)})
        g = StateGraph(4, edges, frozenset())
        t = spanning_tree_dfs(g)
        assert t.tree_edges == g.undirected_star_pairs()

    def test_structured_wdn_tree_is_the_frozen_one(self):
        # hand-run of the ascending-order DFS over the flow/head graph
        g = from_pattern(structured_pattern(TRIANGLE_WDN_INC))
        t = spanning_tree_dfs(g)
        assert t.tree_edges == frozenset(
            {(0, 4), (1, 4), (1, 6), (3, 6), (3, 5), (2, 5), (0, 7)}
        )
        assert len(removed_chords(g, t)) == 1

    def test_forest_on_disconnected_input(self):
        g = StateGraph(5, frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}), frozenset())
        t = spanning_tree_dfs(g)
        assert set(t.roots) == {0, 2, 4}
        assert t.tree_edges == frozenset({(0, 1), (2, 3)})
        assert len(t.roots) + len(t.tree_edges) == t.n  # one root or one tree edge per node
        assert all(t.parent[v] is not None for v in range(t.n) if v not in t.roots)

    def test_self_loops_never_enter_tree(self):
        p = PatternMatrix.from_rows(["**", "**"], symmetric=True)
        t = spanning_tree_dfs(from_pattern(p))
        assert t.tree_edges == frozenset({(0, 1)})

    def test_matches_recursive_reference(self):
        for seed in range(40):
            g = from_pattern(random_symmetric_pattern(seed, n_max=40))
            t = spanning_tree_dfs(g)
            reference, edges = recursive_reference(g)
            assert t == reference  # parents and roots, not only the edges
            assert t.tree_edges == frozenset(edges)

    @settings(max_examples=300, deadline=None)
    @given(sparse_graphs())
    def test_forests_match_recursive_reference(self, g):
        """Disconnected and asymmetric inputs, isolated nodes and self-loop-only nodes: the same parents and roots."""
        assert spanning_tree_dfs(g) == recursive_reference(g)[0]

    @pytest.mark.parametrize("n", [100_000, 100_001])
    def test_long_path_walks_out_and_back_without_recursion(self, n):
        """A path far deeper than the recursion limit, 0 in its middle, odd nodes on one side and even on the other.

        The walk runs down the odd side to its end, climbs back through every parent to 0, and runs down the even side.
        """
        order = list(range(1, n, 2))[::-1] + list(range(0, n, 2))  # ..., 5, 3, 1, 0, 2, 4, ...
        pairs = set(zip(order, order[1:]))
        t = spanning_tree_dfs(StateGraph(n, frozenset(pairs | {(j, i) for (i, j) in pairs})))
        assert t.roots == (0,)
        assert t.parent == (None, 0, 0) + tuple(range(1, n - 2))

    def test_deterministic(self):
        g = from_pattern(random_symmetric_pattern(5, n_max=30))
        assert spanning_tree_dfs(g) == spanning_tree_dfs(g)

    def test_structural_invariants(self):
        for seed in range(40):
            g = from_pattern(random_symmetric_pattern(seed, n_max=40))
            t = spanning_tree_dfs(g)
            assert union_find_acyclic(t.tree_edges)
            assert len(t.tree_edges) == g.n - len(t.roots)
            assert t.tree_edges <= g.undirected_star_pairs()
            # the tree, viewed as a graph, has no cycles left
            doubled = frozenset((i, j) for (i, j) in t.tree_edges) | frozenset(
                (j, i) for (i, j) in t.tree_edges
            )
            assert cycle_count(StateGraph(g.n, doubled, frozenset())) == 0
            # parent chains terminate at roots
            for v in range(g.n):
                hops, cur = 0, v
                while t.parent[cur] is not None:
                    cur = t.parent[cur]
                    hops += 1
                    assert hops <= g.n
                assert cur in t.roots

    def test_json_shape(self):
        t = spanning_tree_dfs(from_pattern(TRIANGLE))
        assert t.parent == (None, 0, 1) and t.roots == (0,)
        assert t.tree_edges == frozenset({(0, 1), (1, 2)})

    def test_degrees_count_tree_edges_only(self):
        t = spanning_tree_dfs(from_pattern(TRIANGLE))
        assert t.degrees() == [1, 2, 1]

    @settings(max_examples=200, deadline=None)
    @given(sparse_graphs())
    def test_degrees_from_parents_match_the_edge_set(self, g):
        t = spanning_tree_dfs(g)
        assert t.degrees() == edge_set_degrees(t)

    def test_degrees_of_isolated_nodes_and_disconnected_forests(self):
        # components {0, 1, 2}, {3, 4}, and isolated 5 and 6 (6 carries only a self-loop)
        pairs = {(0, 1), (1, 2), (2, 0), (3, 4), (6, 6)}
        g = StateGraph(7, frozenset(pairs | {(j, i) for (i, j) in pairs}))
        t = spanning_tree_dfs(g)
        assert t.roots == (0, 3, 5, 6)
        assert t.degrees() == edge_set_degrees(t) == [1, 2, 1, 1, 1, 0, 0]
        assert t == recursive_reference(g)[0] == SpanningTree((None, 0, 1, None, 3, None, None), (0, 3, 5, 6),
                                                              (0, 2, 3, 4, 5, 6))


class TestRemovedChords:
    def test_triangle_has_one_chord(self):
        g = from_pattern(TRIANGLE)
        assert removed_chords(g, spanning_tree_dfs(g)) == {(0, 2)}

    def test_tree_has_none(self):
        g = StateGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}), frozenset())
        assert removed_chords(g, spanning_tree_dfs(g)) == set()

    def test_chord_count_equals_cycle_count(self):
        for seed in range(40):
            g = from_pattern(random_symmetric_pattern(seed, n_max=40))
            t = spanning_tree_dfs(g)
            chords = removed_chords(g, t)
            assert len(chords) == cycle_count(g)
            assert len(chords) + len(t.tree_edges) == len(g.undirected_star_pairs())

    def test_size_mismatch_rejected(self):
        g = from_pattern(TRIANGLE)
        other = spanning_tree_dfs(StateGraph(4, frozenset({(0, 1), (1, 0)}), frozenset()))
        with pytest.raises(ValueError):
            removed_chords(g, other)

    def test_tree_edge_outside_the_graph_rejected(self):
        g = StateGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}), frozenset())
        stray = hand_built_forest((None, 0, 0), (0,))  # edge (0, 2) is no star edge of the path
        with pytest.raises(ValueError) as exc:
            removed_chords(g, stray)
        assert str(exc.value) == "tree edge (0, 2) is not a star edge of the graph"


@st.composite
def forests(draw, max_n: int = 40) -> SpanningTree:
    """Parent pointers over nodes visited in a random order, each a root or the child of an earlier node.

    Roots with no, one and several children, isolated nodes, and parents
    on either side of their children in index order all occur.
    """
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(n)))
    parent = [None] * n
    for k, v in enumerate(order):
        if k and draw(st.integers(0, 3)):
            parent[v] = order[draw(st.integers(0, k - 1))]
    return hand_built_forest(parent, (v for v in order if parent[v] is None))


def many_components(count: int) -> SpanningTree:
    """``count`` components of each of four shapes, interleaved: an isolated node, a pair, a path of
    three rooted at one end, and a root with two children."""
    parent = []
    for _ in range(count):
        base = len(parent)
        parent += [None]  # isolated
        parent += [None, base + 1]  # pair
        parent += [None, base + 3, base + 4]  # path rooted at its end
        parent += [base + 7, None, base + 7]  # root in the middle, two children
    return hand_built_forest(parent, (v for v, p in enumerate(parent) if p is None))


def graph_of_forest(t: SpanningTree) -> StateGraph:
    """The star graph of the forest's edges: its own DFS forest has the same edges, so the same degrees."""
    return StateGraph(t.n, t.tree_edges | {(j, i) for (i, j) in t.tree_edges})


class TestForestReads:
    """The forest carries parents, roots and the leaves its walk reported; its edges are read off ``parent``."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_graphs())
    def test_walk_reports_the_degree_leaves(self, g):
        """Disconnected and asymmetric inputs, isolated nodes and self-loop-only nodes: the edge-set degrees' leaves."""
        t = spanning_tree_dfs(g)
        assert t.leaves == degree_leaves(t) == tuple(v for v, d in enumerate(t.degrees()) if d < 2)

    @settings(max_examples=300, deadline=None)
    @given(forests())
    def test_leaves_on_random_forests(self, t):
        """Roots with no, one and several children: the walk over a forest's own graph reports its leaves."""
        g = graph_of_forest(t)
        walked = spanning_tree_dfs(g)
        assert place_cyclic(g, walked).measured == walked.leaves == degree_leaves(t)

    def test_roots_with_no_one_and_two_children(self):
        # roots 0 (children 1 and 2), 3 (child 4), 5 (none), 6 (none, a self-loop only)
        pairs = {(0, 1), (0, 2), (3, 4), (6, 6)}
        t = spanning_tree_dfs(StateGraph(7, frozenset(pairs | {(j, i) for (i, j) in pairs})))
        assert t.parent == (None, 0, 0, None, 3, None, None)
        assert t.leaves == degree_leaves(t) == (1, 2, 3, 4, 5, 6)

    def test_leaves_on_thousands_of_components(self):
        t = many_components(2000)
        walked = spanning_tree_dfs(graph_of_forest(t))
        assert walked.leaves == degree_leaves(t) == degree_leaves(walked)
        # per component: the isolated node, both of the pair, the root and the end of the path, the two children
        assert len(walked.leaves) == 2000 * 7

    @pytest.mark.parametrize("n", [100_000, 100_001])
    def test_leaves_of_long_paths_are_their_ends(self, n):
        order = list(range(1, n, 2))[::-1] + list(range(0, n, 2))  # ..., 5, 3, 1, 0, 2, 4, ...: 0 has two children
        pairs = set(zip(order, order[1:]))
        t = spanning_tree_dfs(StateGraph(n, frozenset(pairs | {(j, i) for (i, j) in pairs})))
        assert t.leaves == degree_leaves(t) == (n - 2, n - 1)

    def test_place_cyclic_does_not_check_the_leaves_again(self, monkeypatch):
        checked = []
        monkeypatch.setattr(strucsense.placement, "_check_measured", lambda *args: checked.append(args))
        g = from_pattern(random_symmetric_pattern(3, n_max=40))
        t = spanning_tree_dfs(g)
        p = place_cyclic(g, t)
        assert checked == []
        # the checked constructor gives the same placement, and does check
        assert p == SensorPlacement(t.leaves, g.n, "cyclic") and checked == [(t.leaves, g.n)]

    @settings(max_examples=200, deadline=None)
    @given(sparse_graphs())
    def test_edges_on_read_equal_the_eager_set(self, g):
        t = spanning_tree_dfs(g)
        assert t._fields == ("parent", "roots", "leaves")
        eager = frozenset((p, v) if p < v else (v, p) for v, p in enumerate(t.parent) if p is not None)
        assert t.tree_edges == eager == frozenset(recursive_reference(g)[1])
        assert len(t.tree_edges) == t.n - len(t.roots)
