"""Sensor placement rules and the output pattern they induce.

Two strategies: for trees, measure every extreme node but one; for general
graphs, extract a spanning forest and measure every node whose tree degree
is below two (leaves and isolated nodes). Both produce an output pattern
with exactly one star per row, which downstream certification consumes.
``PipelineRun`` chains these stages and the certificate for one input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .forcing import Certificate, certify_sso
from .netgraph import NodeClassification, StateGraph, classify_nodes, connected_components_star, cycle_count
from .pattern import PatternMatrix
from .spanning import SpanningTree, removed_chords, spanning_tree_dfs


@dataclass(frozen=True)
class SensorPlacement:
    """Ordered, distinct measured state indices plus the strategy used."""

    measured: tuple
    n_states: int
    mode: str  # "tree", "cyclic", or "given" (user-proposed sensors)

    def __post_init__(self):
        if len(set(self.measured)) != len(self.measured):
            raise ValueError("duplicate measured indices")
        for i in self.measured:
            if not (0 <= i < self.n_states):
                raise ValueError(f"measured index {i} outside 0..{self.n_states - 1}")

    @property
    def n_y(self) -> int:
        return len(self.measured)

    def as_dict(self, labels: list | None = None) -> dict:
        payload = {"mode": self.mode, "measured": list(self.measured)}
        if labels is not None:
            payload["labels"] = [labels[i] for i in self.measured]
        return payload

    def to_json(self, labels: list | None = None) -> str:
        return json.dumps(self.as_dict(labels), sort_keys=True)


@dataclass(frozen=True)
class SensorCountReport:
    """Sensor count against its structural bounds."""

    n_e_graph: int
    cycles: int
    sensors: int
    bound_ok: bool

    def as_dict(self) -> dict:
        return {
            "extreme_nodes": self.n_e_graph,
            "cycles": self.cycles,
            "sensors": self.sensors,
            "bound_ok": self.bound_ok,
        }


def place_tree(g: StateGraph, classification: NodeClassification | None = None) -> SensorPlacement:
    """Measure all extreme nodes except the highest-indexed one.

    Requires an acyclic, single-component graph. Any omitted extreme node
    would do; dropping the highest index keeps the result deterministic.
    A single-node graph gets one sensor on its only state.
    ``classification`` is ``classify_nodes(g)`` when the caller holds it.
    """
    components = connected_components_star(g)
    cycles = cycle_count(g, components)
    if cycles > 0:
        chord = min(removed_chords(g, spanning_tree_dfs(g)))
        raise ValueError(f"graph is cyclic ({cycles} cycles; e.g. chord {chord}); use cyclic placement")
    if len(components) > 1:
        raise ValueError(f"graph has {len(components)} star components; tree placement needs one")
    if g.n == 1:
        return SensorPlacement((0,), 1, "tree")
    extreme = (classification or classify_nodes(g)).extreme
    if not extreme:
        raise ValueError("no extreme node to anchor the placement")
    return SensorPlacement(tuple(extreme[:-1]), g.n, "tree")


def place_cyclic(g: StateGraph, t: SpanningTree) -> SensorPlacement:
    """Measure every node with tree degree < 2: leaves and isolated nodes.

    Works per component on disconnected inputs, since leaf selection reads
    only the forest. Depends on ``g`` only through the forest built from it.
    """
    if t.n != g.n:
        raise ValueError(f"tree over {t.n} nodes does not match graph with {g.n}")
    deg = t.degrees()
    measured = tuple(v for v in range(g.n) if deg[v] < 2)
    return SensorPlacement(measured, g.n, "cyclic")


def build_output_pattern(p: SensorPlacement, n_states: int) -> PatternMatrix:
    """Output pattern with one star per row at the measured state.

    No column carries two stars, so every numeric realization with unit
    stars has full row rank.
    """
    star = frozenset((row, state) for row, state in enumerate(p.measured))
    for i in p.measured:
        if not (0 <= i < n_states):
            raise ValueError(f"measured index {i} outside 0..{n_states - 1}")
    return PatternMatrix(p.n_y, n_states, star, frozenset())


def count_bounds_ok(n_e: int, cycles: int, sensors: int) -> bool:
    """Structural envelope for a cyclic placement's size.

    At least one sensor per graph extreme node, at least one per
    independent cycle, and never more than extreme nodes plus twice the
    cycles (interlocked cycles can need extra sensors inside them).
    """
    ok = n_e <= sensors <= n_e + 2 * cycles
    if cycles >= 1:
        ok = ok and sensors >= cycles
    return ok


def sensor_count_report(g: StateGraph, t: SpanningTree, p: SensorPlacement) -> SensorCountReport:
    """Check the placement size against its structural bounds; ``t`` drops one star pair per cycle."""
    n_e = classify_nodes(g).n_e
    cycles = sum(map(len, g.star_nbrs)) // 2 - len(t.tree_edges)
    return SensorCountReport(n_e, cycles, p.n_y, count_bounds_ok(n_e, cycles, p.n_y))


@dataclass(frozen=True)
class PipelineRun:
    """One input's forest, placement, output pattern, certificate and counts.

    Each stage is computed on first read and kept, so a caller pays only for
    what it reads. ``mode`` is "cyclic" or "tree" (no forest: ``tree`` is
    None); a ``given`` placement, e.g. a user's proposal, replaces both rules.
    """

    pattern: PatternMatrix
    graph: StateGraph
    mode: str = "cyclic"
    given: SensorPlacement | None = None

    @cached_property
    def classification(self) -> NodeClassification:
        return classify_nodes(self.graph)

    @cached_property
    def tree(self) -> SpanningTree | None:
        if self.given is not None or self.mode == "tree":
            return None
        return spanning_tree_dfs(self.graph)

    @cached_property
    def placement(self) -> SensorPlacement:
        if self.given is not None:
            return self.given
        if self.mode == "tree":
            return place_tree(self.graph, self.classification)
        return place_cyclic(self.graph, self.tree)

    @cached_property
    def output(self) -> PatternMatrix:
        return build_output_pattern(self.placement, self.graph.n)

    @cached_property
    def certificate(self) -> Certificate:
        return certify_sso(self.pattern, self.output)

    @cached_property
    def counts(self) -> SensorCountReport:
        p = self.placement
        if p.mode != "tree":
            return sensor_count_report(self.graph, self.tree, p)
        n_e = self.classification.n_e  # the tree rule measures all extreme nodes but one
        return SensorCountReport(n_e, 0, p.n_y, p.n_y == (1 if self.graph.n == 1 else n_e - 1))
