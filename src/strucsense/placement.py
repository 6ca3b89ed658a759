"""Sensor placement rules, the pipeline record, and the output pattern.

Both rules read the spanning forest's leaves: for general graphs, measure
every node of tree degree below two (leaves and isolated nodes); for trees,
every extreme node (a leaf with no other neighbour) but one. ``PipelineRun``
chains these stages for one input and certifies its placement from its own
two closed runs, on A and Abar. The output pattern (one star per row) is
built only for the oracle and the paper-timed stages.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .forcing import Certificate, ClosureRun
from .netgraph import StateGraph, companion, cycle_count, outside
from .pattern import PatternMatrix
from .spanning import SpanningTree, removed_chords, spanning_tree_dfs


def _check_measured(measured: tuple, n_states: int) -> None:
    """Reject repeated indices, then the first index outside ``0..n_states - 1``; bulk checks, one pass on failure."""
    if len(set(measured)) != len(measured):
        raise ValueError("duplicate measured indices")
    if measured and not (0 <= min(measured) and max(measured) < n_states):
        bad = next(i for i in measured if not (0 <= i < n_states))
        raise ValueError(outside(f"measured index {bad}", n_states))


class SensorPlacement:
    """Ordered, distinct measured state indices plus the strategy used."""

    def __init__(self, measured: tuple, n_states: int, mode: str):
        _check_measured(measured, n_states)
        self._store(measured, n_states, mode)

    def _store(self, measured: tuple, n_states: int, mode: str) -> "SensorPlacement":
        """The one writer of a placement's fields, whichever constructor ran; returns the placement."""
        self.measured, self.n_states = measured, n_states
        self.mode = mode  # "tree", "cyclic", or "given" (user-proposed sensors)
        return self

    @classmethod
    def _unchecked(cls, measured: tuple, n_states: int, mode: str) -> "SensorPlacement":
        """Skip ``__init__``'s check: the caller's indices are distinct and in ``0..n_states - 1``."""
        return object.__new__(cls)._store(measured, n_states, mode)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.measured, self.n_states, self.mode) == (other.measured, other.n_states, other.mode)

    def __hash__(self) -> int:
        return hash((self.measured, self.n_states, self.mode))

    @property
    def n_y(self) -> int:
        return len(self.measured)

    def as_dict(self, labels: list) -> dict:
        return {"mode": self.mode, "measured": list(self.measured), "labels": [labels[i] for i in self.measured]}


class SensorCountReport(NamedTuple):
    """Sensor count against its structural bounds."""

    extreme_nodes: int
    cycles: int
    sensors: int
    bound_ok: bool


def place_tree(g: StateGraph, t: SpanningTree) -> SensorPlacement:
    """Measure all extreme nodes except the highest-indexed one.

    Requires an acyclic, single-component graph, read off ``t``, its DFS
    forest. Any omitted extreme node would do; dropping the highest index
    keeps the result deterministic. A graph of at most one node measures
    every state it has. Once the checks pass, every star edge is a tree edge,
    so the extreme nodes are the leaves of ``t`` with one neighbour of either kind.
    """
    if t.n != g.n:
        raise ValueError(f"tree over {t.n} nodes does not match graph with {g.n}")
    cycles = cycle_count(g, t.roots)
    if cycles > 0:
        chord = min(removed_chords(g, t))
        raise ValueError(f"graph is cyclic ({cycles} cycles; e.g. chord {chord}); use cyclic placement")
    if len(t.roots) > 1:
        raise ValueError(f"graph has {len(t.roots)} star components; tree placement needs one")
    if g.n <= 1:
        return SensorPlacement(tuple(range(g.n)), g.n, "tree")
    extreme = [v for v in t.leaves if len(g.nbrs[v]) == 1]
    if not extreme:
        raise ValueError("no extreme node to anchor the placement")
    return SensorPlacement(tuple(extreme[:-1]), g.n, "tree")


def place_cyclic(g: StateGraph, t: SpanningTree) -> SensorPlacement:
    """Measure every node with tree degree < 2: leaves and isolated nodes.

    Works per component on disconnected inputs, since leaf selection reads
    only the forest. Depends on ``g`` only through the forest built from it,
    whose walk reported its leaves: distinct and in range once the sizes
    match, so they are not checked again.
    """
    if t.n != g.n:
        raise ValueError(f"tree over {t.n} nodes does not match graph with {g.n}")
    return SensorPlacement._unchecked(t.leaves, g.n, "cyclic")


def build_output_pattern(p: SensorPlacement, n_states: int) -> PatternMatrix:
    """Output pattern with one star per row at the measured state.

    No column carries two stars, so unit-star realizations have full row
    rank. ``p`` checked its indices; only another ``n_states`` re-checks them.
    """
    if n_states != p.n_states:
        _check_measured(p.measured, n_states)
    return PatternMatrix._unchecked(p.n_y, n_states, frozenset(enumerate(p.measured)), frozenset())


def count_bounds_ok(n_e: int, cycles: int, sensors: int) -> bool:
    """Structural envelope for a cyclic placement's size.

    ``n_e`` counts the nodes the rule must measure outright, those of star
    degree below two (``sensor_count_report`` counts them). At least one
    sensor per such node, at least one per independent cycle, and never
    more than those nodes plus twice the cycles (interlocked cycles can
    need extra sensors inside them).
    """
    return cycles <= sensors and n_e <= sensors <= n_e + 2 * cycles


def sensor_count_report(g: StateGraph, t: SpanningTree, p: SensorPlacement) -> SensorCountReport:
    """Check the placement size against its rule's bound; ``t`` drops one star pair per cycle.

    A tree placement must measure every extreme node but one (every state, on
    at most one). Any other is held to ``count_bounds_ok``'s envelope, which
    counts the states of star degree below two, since the forest reads star
    edges only and the cyclic rule measures every state of tree degree below
    two; the report's ``extreme_nodes`` stays ``classify_nodes``' extreme-node
    count, whose degrees count unknown edges too.
    """
    star = list(map(len, g.star_nbrs))
    both = star if g.nbrs is g.star_nbrs else list(map(len, g.nbrs))
    cycles, n_e = cycle_count(g, t.roots), both.count(1)
    if p.mode == "tree":
        ok = p.n_y == (g.n if g.n <= 1 else n_e - 1)
    else:
        ok = count_bounds_ok(star.count(0) + star.count(1), cycles, p.n_y)
    return SensorCountReport(n_e, cycles, p.n_y, ok)


class PipelineRun:
    """One input's forest, placement, closed runs, certificate, counts and output pattern.

    Each stage is computed on first read and kept, so a caller pays only for
    what it reads. ``graph`` is ``from_pattern(a)`` or ``wdn.state_graph(net)``;
    every stage reads the graph and never the pattern. ``a_run`` and ``abar_run``
    close the graph and its companion from the measured states; ``certificate``
    reads their verdicts and traces, ``stuck`` names the one left with a white
    state. ``output`` serves only the oracle and the paper-timed stages. ``tree``
    is the DFS forest whatever the mode: both rules read it. ``mode`` is
    "cyclic" or "tree"; a ``given`` placement, e.g. a user's proposal, replaces
    both rules. A run is a computation, not a value: it compares by identity.
    """

    def __init__(self, graph: StateGraph, mode: str = "cyclic", given: SensorPlacement | None = None):
        self.graph, self.mode, self.given = graph, mode, given

    @cached_property
    def tree(self) -> SpanningTree:
        return spanning_tree_dfs(self.graph)

    @cached_property
    def placement(self) -> SensorPlacement:
        if self.given is not None:
            return self.given
        if self.mode == "tree":
            return place_tree(self.graph, self.tree)
        return place_cyclic(self.graph, self.tree)

    @cached_property
    def output(self) -> PatternMatrix:
        return build_output_pattern(self.placement, self.graph.n)

    @cached_property
    def a_run(self) -> ClosureRun:
        return ClosureRun(self.graph, self.placement.measured)

    @cached_property
    def abar_run(self) -> ClosureRun:
        return ClosureRun(companion(self.graph), self.placement.measured)

    @cached_property
    def stuck(self) -> ClosureRun | None:
        """The closed run that leaves a state white: A's, else Abar's, closed only once A colours; None if both colour."""
        if not all(self.a_run.black):
            return self.a_run
        return None if all(self.abar_run.black) else self.abar_run

    @cached_property
    def certificate(self) -> Certificate:
        return Certificate.of(self.a_run, self.abar_run)

    @cached_property
    def counts(self) -> SensorCountReport:
        return sensor_count_report(self.graph, self.tree, self.placement)
