"""Graph view of a square pattern matrix.

Nodes are state indices; a star edge (i, j) means the (possibly transposed)
pattern holds a star at that position, an unknown edge means it holds an
unknown. Node classification, star-edge connectivity, and independent-cycle
counting all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pattern import Entry, PatternMatrix


def _lists(n: int, edges) -> tuple:
    """Ascending off-diagonal neighbour tuple per node: (i, j) puts j in i's list."""
    out = [[] for _ in range(n)]
    for (i, j) in edges:
        if i != j:
            out[i].append(j)
    return tuple(tuple(sorted(nbrs)) for nbrs in out)


def _adjacency(n: int, star: frozenset, unknown: frozenset, symmetric: bool) -> dict:
    """Every neighbour list and self-loop flag of a graph, keyed by ``StateGraph`` field."""
    is_star, is_unknown, none = Entry.STAR, Entry.UNKNOWN, Entry.ZERO
    loops = tuple([is_star if p in star else is_unknown if p in unknown else none for p in zip(range(n), range(n))])
    both = star | unknown if any(i != j for (i, j) in unknown) else star  # loops never enter a list
    if symmetric:  # edges run both ways: the directed lists are the undirected ones
        star_nbrs = _lists(n, star)
        nbrs = _lists(n, both) if both is not star else star_nbrs
        return dict(star_nbrs=star_nbrs, nbrs=nbrs, star_out=star_nbrs, out=nbrs, inn=nbrs, loops=loops)
    star_rev, both_rev = ({(j, i) for (i, j) in edges} for edges in (star, both))
    return dict(star_nbrs=_lists(n, star | star_rev), nbrs=_lists(n, both | both_rev),
                star_out=_lists(n, star), out=_lists(n, both), inn=_lists(n, both_rev), loops=loops)


@dataclass(frozen=True)
class StateGraph:
    """Sparse graph with two edge kinds and its adjacency, immutable after build.

    Per node, ascending off-diagonal neighbours: undirected over star edges
    and over both kinds (``star_nbrs``, ``nbrs``; in-edges count, so
    asymmetric inputs still classify sensibly), directed (``star_out``,
    ``out``, ``inn``), the same tuples when the graph is symmetric; and
    ``loops``, the diagonal ``Entry`` (ZERO: no self-loop).
    """

    n: int
    star_edges: frozenset = field(default_factory=frozenset)
    unknown_edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        star = frozenset(tuple(e) for e in self.star_edges)
        unknown = frozenset(tuple(e) for e in self.unknown_edges)
        for (i, j) in star | unknown:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) outside node range 0..{self.n - 1}")
        if star & unknown:
            raise ValueError("an edge cannot be both star and unknown")
        object.__setattr__(self, "star_edges", star)
        object.__setattr__(self, "unknown_edges", unknown)
        self.__dict__.update(_adjacency(self.n, star, unknown, self.is_symmetric()))

    def undirected_star_pairs(self) -> set:
        """Unordered star edges {i, j} with i != j (self-loops dropped)."""
        return {(v, u) for v in range(self.n) for u in self.star_nbrs[v] if v < u}

    def is_symmetric(self) -> bool:
        return all((j, i) in self.star_edges for (i, j) in self.star_edges) and all(
            (j, i) in self.unknown_edges for (i, j) in self.unknown_edges
        )


@dataclass(frozen=True)
class NodeClassification:
    """Degree-based node roles; degrees ignore self-loops.

    Extreme nodes have exactly one neighbor, intersection nodes at least
    three. Isolated (degree-0) nodes are listed separately: they are not
    extreme, but the cyclic placement rule still selects them.
    """

    extreme: tuple
    intersection: tuple
    isolated: tuple

    @property
    def n_e(self) -> int:
        return len(self.extreme)

    @property
    def n_i(self) -> int:
        return len(self.intersection)


@dataclass(frozen=True)
class PreconditionReport:
    """Structural prerequisites for guaranteed placement, with witnesses."""

    symmetric: bool
    fully_connected: bool
    has_extreme: bool
    asymmetric_at: tuple | None
    components: tuple
    classification: NodeClassification

    @property
    def extreme_nodes(self) -> tuple:
        return self.classification.extreme

    @property
    def all_ok(self) -> bool:
        return self.symmetric and self.fully_connected and self.has_extreme

    def as_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "fully_connected": self.fully_connected,
            "has_extreme": self.has_extreme,
            "asymmetric_at": list(self.asymmetric_at) if self.asymmetric_at else None,
            "components": [list(c) for c in self.components],
            "extreme_nodes": list(self.extreme_nodes),
        }


def from_pattern(a: PatternMatrix, transpose: bool = False) -> StateGraph:
    """Graph of a square pattern; with ``transpose`` edges follow entry (j, i)."""
    if not a.is_square:
        raise ValueError(f"square matrix required, got {a.rows}x{a.cols}")
    if a.symmetric:  # entries range- and mirror-checked when ``a`` was built: skip StateGraph's checks
        g = object.__new__(StateGraph)
        g.__dict__.update(n=a.rows, star_edges=a.star, unknown_edges=a.unknown)
        g.__dict__.update(_adjacency(a.rows, a.star, a.unknown, symmetric=True))
        return g
    if transpose:
        star = frozenset((j, i) for (i, j) in a.star)
        unknown = frozenset((j, i) for (i, j) in a.unknown)
    else:
        star, unknown = a.star, a.unknown
    return StateGraph(a.rows, star, unknown)


def classify_nodes(g: StateGraph) -> NodeClassification:
    extreme, intersection, isolated = [], [], []
    for v in range(g.n):
        d = len(g.nbrs[v])
        if d == 1:
            extreme.append(v)
        elif d >= 3:
            intersection.append(v)
        elif d == 0:
            isolated.append(v)
    return NodeClassification(tuple(extreme), tuple(intersection), tuple(isolated))


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
    forest removes. ``components`` is ``connected_components_star(g)``
    when the caller holds it already.
    """
    if components is None:
        components = connected_components_star(g)
    m = sum(len(nbrs) for nbrs in g.star_nbrs) // 2
    return m - g.n + len(components)


def check_preconditions(a: PatternMatrix, g: StateGraph | None = None) -> PreconditionReport:
    """Report whether a square pattern meets the placement prerequisites.

    Checks symmetry of the pattern, full connectivity through star edges,
    and the presence of at least one extreme node. Report-only; callers
    decide what to do with violations. ``g`` is the pattern's transposed
    graph, ``from_pattern(a, transpose=True)``, when the caller holds it
    already; the report carries the node classification it computed.
    """
    if not a.is_square:
        raise ValueError(f"square matrix required, got {a.rows}x{a.cols}")
    asymmetric_at = None  # a pattern flagged symmetric was verified when built
    if not a.symmetric:
        # smallest position whose transpose holds a different entry
        unmirrored = [(i, j) for (i, j) in a.star if (j, i) not in a.star]
        unmirrored += [(i, j) for (i, j) in a.unknown if (j, i) not in a.unknown]
        asymmetric_at = min(unmirrored, default=None)
    if g is None:
        g = from_pattern(a, transpose=True)
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
