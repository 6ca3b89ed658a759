"""Graph view of a square pattern matrix, the one structural input of every stage.

Nodes are state indices; a star edge (i, j) means the pattern holds a star
at (j, i), an unknown edge that it holds an unknown there. ``from_pattern``
and ``to_pattern`` cross between a state pattern and its state graph,
exactly; ``companion`` gives the graph of the nonzero-diagonal companion.
Node classification, star-edge connectivity, and independent-cycle
counting all live here.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .pattern import Entry, PatternMatrix


def outside(what: str, n: int, range_name: str = "") -> str:
    """The message for ``what`` lying outside the indices ``0..n - 1``; with ``n`` 0 there are none to name."""
    return f"{what} outside {range_name}0..{n - 1}" if n else f"{what} outside a graph with no states"


def _lists(n: int, edges) -> tuple:
    """Ascending off-diagonal neighbour tuple per node: (i, j) puts j in i's list."""
    out = [[] for _ in range(n)]
    for (i, j) in edges:
        if i != j:
            out[i].append(j)
    return tuple(tuple(sorted(nbrs)) for nbrs in out)


class StateGraph:
    """Sparse graph with two edge kinds and its adjacency, never changed after build.

    Per node, ascending off-diagonal neighbours: undirected over star edges
    and over both kinds (``star_nbrs``, ``nbrs``; in-edges count, so
    asymmetric inputs still classify sensibly), directed (``star_out``,
    ``out``, ``inn``), the same tuples when the graph is symmetric; and
    ``loops``, the diagonal ``Entry`` (ZERO: no self-loop). A graph is its
    lists, whichever constructor built it (``star_graph`` takes them ready
    made); its edge sets are read off them on first use.
    """

    def __init__(self, n: int, star_edges: frozenset = frozenset(), unknown_edges: frozenset = frozenset()):
        if n < 0:
            raise ValueError(f"negative state count {n}")
        star = frozenset(tuple(e) for e in star_edges)
        unknown = frozenset(tuple(e) for e in unknown_edges)
        for (i, j) in star | unknown:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(outside(f"edge ({i}, {j})", n, "node range "))
        if star & unknown:
            raise ValueError(f"edge {min(star & unknown)} is both star and unknown")
        is_star, is_unknown, none = Entry.STAR, Entry.UNKNOWN, Entry.ZERO
        loops = tuple([is_star if p in star else is_unknown if p in unknown else none for p in zip(range(n), range(n))])
        both = star | unknown if any(i != j for (i, j) in unknown) else star  # loops never enter a list
        if all((j, i) in star for (i, j) in star) and all((j, i) in unknown for (i, j) in unknown):
            # edges run both ways: the directed lists are the undirected ones
            star_nbrs = star_out = _lists(n, star)
            nbrs = out = inn = _lists(n, both) if both is not star else star_nbrs
        else:
            star_rev, both_rev = ({(j, i) for (i, j) in edges} for edges in (star, both))
            star_nbrs, nbrs = _lists(n, star | star_rev), _lists(n, both | both_rev)
            star_out, out, inn = _lists(n, star), _lists(n, both), _lists(n, both_rev)
        self._store(n, loops, star_nbrs, nbrs, star_out, out, inn)

    def _store(self, n: int, loops: tuple, star_nbrs: tuple, nbrs: tuple, star_out: tuple, out: tuple, inn: tuple):
        """The one writer of a graph's fields, whichever constructor ran."""
        self.n, self.loops = n, loops
        self.star_nbrs, self.nbrs, self.star_out, self.out, self.inn = star_nbrs, nbrs, star_out, out, inn

    @cached_property
    def star_edges(self) -> frozenset:
        """Directed star edges (i, j), star self-loops included."""
        loops = [(v, v) for v, loop in enumerate(self.loops) if loop is Entry.STAR]
        return frozenset([(v, u) for v, nbrs in enumerate(self.star_out) for u in nbrs] + loops)

    @cached_property
    def unknown_edges(self) -> frozenset:
        """Directed unknown edges (i, j), unknown self-loops included."""
        loops = [(v, v) for v, loop in enumerate(self.loops) if loop is Entry.UNKNOWN]
        return frozenset([(v, u) for v, nbrs in enumerate(self.out) for u in nbrs] + loops) - self.star_edges

    def __eq__(self, other):
        # ascending lists whichever constructor ran: comparing them builds no edge set
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.star_out, self.out, self.loops) == (other.n, other.star_out, other.out, other.loops)

    def __hash__(self) -> int:
        return hash((self.n, self.star_out, self.out, self.loops))

    def undirected_star_pairs(self) -> set:
        """Unordered star edges {i, j} with i != j (self-loops dropped)."""
        return {(v, u) for v in range(self.n) for u in self.star_nbrs[v] if v < u}

    def is_symmetric(self) -> bool:
        """Every edge mirrored by one of its kind: each directed list is its undirected one."""
        return self.star_out == self.star_nbrs and self.out == self.nbrs


class NodeClassification(NamedTuple):
    """Degree-based node roles; degrees ignore self-loops.

    Extreme nodes have exactly one neighbor, intersection nodes at least
    three.
    """

    extreme: tuple
    intersection: tuple

    @property
    def n_e(self) -> int:
        return len(self.extreme)

    @property
    def n_i(self) -> int:
        return len(self.intersection)


class PreconditionReport(NamedTuple):
    """Structural prerequisites for guaranteed placement, with witnesses."""

    symmetric: bool
    fully_connected: bool
    has_extreme: bool
    asymmetric_at: tuple | None
    components: tuple
    classification: NodeClassification

    def as_dict(self) -> dict:
        """The fields, with the classification's extreme nodes in its place."""
        payload = self._asdict()
        payload["extreme_nodes"] = payload.pop("classification").extreme
        return payload


def star_graph(nbrs: tuple, loops: tuple) -> StateGraph:
    """The symmetric graph whose off-diagonal edges are all stars, from its lists.

    ``nbrs`` holds each node's ascending, mirrored off-diagonal neighbours
    and serves as every list; ``loops`` the self-loop flags. Nothing is
    re-checked or re-sorted, and the edge sets are derived only if read.
    """
    g = object.__new__(StateGraph)  # the caller built the lists: skip ``__init__``'s checks
    g._store(len(nbrs), loops, nbrs, nbrs, nbrs, nbrs, nbrs)
    return g


def companion(g: StateGraph) -> StateGraph:
    """The state graph of ``make_abar`` of ``g``'s pattern, sharing ``g``'s lists.

    Only the self-loop flags change: a missing self-loop becomes a star, a
    star or unknown one unknown.
    """
    star, unknown, none = Entry.STAR, Entry.UNKNOWN, Entry.ZERO
    twin = object.__new__(StateGraph)
    twin._store(g.n, tuple([star if loop is none else unknown for loop in g.loops]),
                g.star_nbrs, g.nbrs, g.star_out, g.out, g.inn)
    return twin


def from_pattern(a: PatternMatrix, transpose: bool = True) -> StateGraph:
    """The state graph of a square pattern: entry (i, j) becomes edge (j, i).

    ``to_pattern`` inverts it: ``to_pattern(from_pattern(a)) == a``. Only the
    transposed graph is built; ``transpose`` is kept for callers that pass
    ``transpose=True``, and ``transpose=False`` raises ``ValueError``.
    """
    if not transpose:
        raise ValueError("only the transposed graph is built: transpose=False is not supported")
    if not a.is_square:
        raise ValueError(f"square matrix required, got {a.rows}x{a.cols}")
    return StateGraph(a.rows, _transposed(a.star), _transposed(a.unknown))


def to_pattern(g: StateGraph) -> PatternMatrix:
    """The square pattern whose transposed graph is ``g``: edge (i, j) becomes entry (j, i); nothing is re-checked."""
    return PatternMatrix._unchecked(g.n, g.n, _transposed(g.star_edges), _transposed(g.unknown_edges))


def _transposed(pairs: frozenset) -> frozenset:
    return frozenset((j, i) for (i, j) in pairs)


def classify_nodes(g: StateGraph) -> NodeClassification:
    extreme, intersection = [], []
    for v in range(g.n):
        d = len(g.nbrs[v])
        if d == 1:
            extreme.append(v)
        elif d >= 3:
            intersection.append(v)
    return NodeClassification(tuple(extreme), tuple(intersection))


def connected_components_star(g: StateGraph) -> list:
    """Partition of all nodes by reachability over star edges (both directions)."""
    seen = [False] * g.n
    components = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp, stack = [root], [root]
        while stack:
            v = stack.pop()
            for u in g.star_nbrs[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        components.append(sorted(comp))
    return components


def cycle_count(g: StateGraph, components=None) -> int:
    """Independent cycles over star edges: edges - nodes + components.

    Self-loops are excluded. This equals the number of edges a spanning
    forest removes. ``components`` holds one item per star component,
    e.g. ``connected_components_star(g)`` or a spanning forest's roots,
    when the caller holds them already.
    """
    if components is None:
        components = connected_components_star(g)
    m = sum(map(len, g.star_nbrs)) // 2
    return m - g.n + len(components)


def check_preconditions(g: StateGraph) -> PreconditionReport:
    """Report whether a state graph meets the placement prerequisites.

    Checks symmetry, full connectivity through star edges, and the presence
    of at least one extreme node. Report-only; callers decide what to do
    with violations. The asymmetry witness is a pattern position, the
    graph being the transposed pattern's. The report carries the node
    classification it computed.
    """
    asymmetric_at = None
    if not g.is_symmetric():
        # smallest pattern position whose transpose holds a different entry; edge (i, j) is entry (j, i)
        star, unknown = g.star_edges, g.unknown_edges
        unmirrored = [(j, i) for (i, j) in star if (j, i) not in star]
        unmirrored += [(j, i) for (i, j) in unknown if (j, i) not in unknown]
        asymmetric_at = min(unmirrored)
    components = connected_components_star(g)
    classification = classify_nodes(g)
    return PreconditionReport(
        symmetric=asymmetric_at is None,
        fully_connected=len(components) <= 1,
        has_extreme=classification.n_e >= 1,
        asymmetric_at=asymmetric_at,
        components=tuple(tuple(c) for c in components),
        classification=classification,
    )
