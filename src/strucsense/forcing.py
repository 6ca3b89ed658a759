"""Color-change closure and the two-graph observability certificate.

The observability graph joins state nodes (edges read off the transposed
state pattern) with one sensor node per output row, each pointing at its
measured state. Starting all white, a node forces its unique white
out-neighbor along a star edge once every other out-neighbor (star and
unknown alike, self-loops included) is black; the forcer itself may still
be white. If the closure blackens every state node the graph is colorable.

The certificate runs this closure on the graph of the state pattern and on
the graph of its nonzero-diagonal companion; the system is strongly
structurally observable exactly when both are colorable, i.e. every numeric
realization of the pattern pair is observable.

The state part of that graph never depends on the sensors, so it is
compiled once per pattern (``compile_pattern``) and each sensor set is a
run against it; the exhaustive search closes thousands of sensor sets on
one compiled pair; the companion's graph moves A's self-loops only
(``ClosureGraph.companion``). ``force_closure`` compiles a whole
observability graph and runs the same engine with no extra sensors.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush

from .pattern import PatternMatrix, make_abar  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class ObservabilityGraph:
    """States 0..n_states-1 followed by sensor nodes, with out-edge lists."""

    n_states: int
    n_sensors: int
    star_out: tuple
    unknown_out: tuple

    @property
    def n_nodes(self) -> int:
        return self.n_states + self.n_sensors

    def out_degree(self, v: int) -> int:
        return len(self.star_out[v]) + len(self.unknown_out[v])


@dataclass(frozen=True)
class ColoringState:
    """Final black set plus the ordered forcing steps that produced it."""

    black: frozenset
    trace: tuple  # ordered (forcer, forced) pairs

    def forced_order(self) -> list:
        return [u for (_, u) in self.trace]


@dataclass(frozen=True)
class Certificate:
    """Verdicts and traces for both colorability checks."""

    colorable_a: bool
    trace_a: tuple
    colorable_abar: bool
    trace_abar: tuple

    @property
    def sso(self) -> bool:
        return self.colorable_a and self.colorable_abar

    def as_dict(self) -> dict:
        return {
            "sso": self.sso,
            "graphs": [
                {
                    "name": "A",
                    "colorable": self.colorable_a,
                    "trace": [[v, u] for (v, u) in self.trace_a],
                },
                {
                    "name": "Abar",
                    "colorable": self.colorable_abar,
                    "trace": [[v, u] for (v, u) in self.trace_abar],
                },
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def sensor_states(a: PatternMatrix, c: PatternMatrix) -> tuple:
    """State measured by each output row, in row order.

    Raises unless the state pattern is square, the output pattern has one
    column per state, only stars, and exactly one star per row.
    """
    if not a.is_square:
        raise ValueError(f"square state pattern required, got {a.rows}x{a.cols}")
    if c.cols != a.rows:
        raise ValueError(f"output pattern has {c.cols} columns, expected {a.rows}")
    if c.unknown:
        raise ValueError("output pattern must contain only zeros and stars")
    measured = [None] * c.rows
    stars_per_row = [0] * c.rows
    for (k, j) in c.star:
        stars_per_row[k] += 1
        measured[k] = j
    for k, count in enumerate(stars_per_row):
        if count != 1:
            raise ValueError(f"output row {k} has {count} stars, needs exactly 1")
    return tuple(measured)


def _out_lists(a: PatternMatrix, extra: int = 0) -> tuple:
    """Star and unknown out-lists of the transposed pattern, plus ``extra`` empty nodes."""
    star_out = [[] for _ in range(a.rows + extra)]
    unknown_out = [[] for _ in range(a.rows + extra)]
    for (i, j) in a.star:  # transposed: column index becomes the source
        star_out[j].append(i)
    for (i, j) in a.unknown:
        unknown_out[j].append(i)
    return star_out, unknown_out


def build_observability_graph(a: PatternMatrix, c: PatternMatrix) -> ObservabilityGraph:
    """Join the transposed state pattern with one sensor node per output row.

    Sensor nodes carry exactly one out-edge (a star to their measured state)
    and no in-edges, so each is eligible to force immediately.
    """
    measured = sensor_states(a, c)
    n, p = a.rows, len(measured)
    star_out, unknown_out = _out_lists(a, p)
    for k, j in enumerate(measured):
        star_out[n + k].append(j)
    return ObservabilityGraph(
        n, p,
        tuple(tuple(sorted(x)) for x in star_out),
        tuple(tuple(sorted(x)) for x in unknown_out),
    )


@dataclass(frozen=True)
class ClosureGraph:
    """A color-change graph compiled once, then closed for any sensor set.

    ``star_out`` holds each node's star out-neighbors as a set, ``out_all``
    its out-neighbors over both edge kinds in ascending order, ``in_nbrs``
    its in-neighbors in ascending order, and ``seeds`` the forcings that are
    eligible from all-white. A run measuring states ``measured`` adds sensor
    k as the virtual node ``n + k``, with one star out-edge to
    ``measured[k]`` and no in-edges: exactly the sensor nodes of
    ``build_observability_graph``, so a run pops and traces what a closure
    of that graph does.
    """

    n: int
    star_out: tuple
    out_all: tuple
    in_nbrs: tuple
    out_degree: tuple
    seeds: tuple

    @classmethod
    def from_out_lists(cls, star_out, unknown_out, symmetric: bool = False) -> "ClosureGraph":
        """Compile per-node out-lists: a pattern's states, or a whole observability graph."""
        n = len(star_out)
        stars = tuple(frozenset(x) for x in star_out)
        out_all = tuple(sorted(stars[v].union(unknown_out[v])) for v in range(n))
        in_nbrs = out_all  # a symmetric pattern's edges run both ways
        if not symmetric:
            in_nbrs = [[] for _ in range(n)]
            for v in range(n):
                for u in out_all[v]:
                    in_nbrs[u].append(v)
            in_nbrs = tuple(in_nbrs)
        seeds = tuple((v, out[0]) for v, out in enumerate(out_all) if len(out) == 1 and out[0] in stars[v])
        return cls(n, stars, out_all, in_nbrs, tuple(map(len, out_all)), seeds)

    def companion(self) -> "ClosureGraph":
        """The compiled graph of ``make_abar`` of this graph's pattern.

        Only self-loops differ: a star one becomes unknown, a missing one a
        star. If every state has one, as in every water-network pattern, the
        lists are shared and all loops are unknown, so nothing forces first.
        """
        star_out = tuple(s ^ {v} if v in s or v not in out else s
                         for v, (s, out) in enumerate(zip(self.star_out, self.out_all)))
        if all(v in out for v, out in enumerate(self.out_all)):
            return replace(self, star_out=star_out, seeds=())
        return ClosureGraph.from_out_lists(star_out, self.out_all, self.in_nbrs is self.out_all)

    def run(self, measured=(), rng: random.Random | None = None) -> tuple:
        """Run the color-change rule to fixpoint; return black flags and the trace.

        Worklist keyed by white-out-neighbor counters: a node becomes a
        candidate when exactly one of its out-neighbors is still white and
        the edge to it is a star. Each application is O(in-degree of the
        forced node), so the whole closure is near-linear in edges. Without
        ``rng`` the ascending (forcer, forced) pair is applied first; with
        it, a uniformly random candidate. Sensor nodes are never forced (no
        in-edges), so the flags cover the compiled nodes only.
        """
        star_out, out_all, in_nbrs = self.star_out, self.out_all, self.in_nbrs
        white_out = list(self.out_degree)
        black = [False] * self.n
        # candidates in the order a scan of all nodes, sensors last, finds them
        pool = [*self.seeds, *((self.n + k, s) for k, s in enumerate(measured))]
        if rng is None:
            heapify(pool)
            push, pop = heappush, heappop
        else:
            push = list.append

            def pop(pool: list) -> tuple:
                idx = rng.randrange(len(pool))
                pool[idx], pool[-1] = pool[-1], pool[idx]
                return pool.pop()

        trace = []
        while pool:
            v, u = pop(pool)
            if black[u]:
                continue  # stale: someone else forced u first
            black[u] = True
            trace.append((v, u))
            for w in in_nbrs[u]:
                white_out[w] -= 1
                if white_out[w] == 1:
                    last = next(x for x in out_all[w] if not black[x])
                    if last in star_out[w]:
                        push(pool, (w, last))
        return black, trace

    def colors_all(self, measured) -> bool:
        """True iff measuring ``measured`` blackens every compiled node."""
        return len(self.run(measured)[1]) == self.n


def compile_pattern(a: PatternMatrix) -> ClosureGraph:
    """The state part of the observability graph of ``a``, ready for any sensor set."""
    if not a.is_square:
        raise ValueError(f"square state pattern required, got {a.rows}x{a.cols}")
    return ClosureGraph.from_out_lists(*_out_lists(a), symmetric=a.symmetric)


def _coloring(g: ObservabilityGraph, rng: random.Random | None) -> ColoringState:
    black, trace = ClosureGraph.from_out_lists(g.star_out, g.unknown_out).run((), rng)
    return ColoringState(frozenset(v for v, b in enumerate(black) if b), tuple(trace))


def force_closure(g: ObservabilityGraph) -> ColoringState:
    """Run the color-change rule to fixpoint, ascending (forcer, forced) first."""
    return _coloring(g, None)


def force_closure_randomized(g: ObservabilityGraph, seed: int) -> ColoringState:
    """Closure applying a uniformly random eligible forcing at each step.

    Used to check that the final black set never depends on forcing order.
    """
    return _coloring(g, random.Random(seed))


def force_closure_reference(g: ObservabilityGraph, order: random.Random | None = None) -> ColoringState:
    """Slow from-scratch closure: rescan every node for eligibility per step.

    Kept deliberately naive (no counters) as an independent check of the
    worklist engine. ``order`` picks among eligible forcings at random;
    without it the ascending pair is applied.
    """
    total = g.n_nodes
    out_all = [sorted(set(g.star_out[v]) | set(g.unknown_out[v])) for v in range(total)]
    black = [False] * total
    trace = []
    while True:
        eligible = []
        for v in range(total):
            whites = [u for u in out_all[v] if not black[u]]
            if len(whites) == 1 and whites[0] in g.star_out[v]:
                eligible.append((v, whites[0]))
        if not eligible:
            break
        v, u = order.choice(eligible) if order is not None else min(eligible)
        black[u] = True
        trace.append((v, u))
    return ColoringState(frozenset(i for i in range(total) if black[i]), tuple(trace))


def replay_trace(g: ObservabilityGraph, trace) -> frozenset:
    """Re-apply forcing steps from all-white, validating each against the rule."""
    total = g.n_nodes
    out_all = [sorted(set(g.star_out[v]) | set(g.unknown_out[v])) for v in range(total)]
    black = [False] * total
    for (v, u) in trace:
        if black[u]:
            raise ValueError(f"step ({v}, {u}) forces an already-black node")
        if u not in g.star_out[v]:
            raise ValueError(f"step ({v}, {u}) is not a star edge")
        others_white = [w for w in out_all[v] if not black[w] and w != u]
        if others_white:
            raise ValueError(f"step ({v}, {u}) applied while {others_white[0]} is white")
        black[u] = True
    return frozenset(i for i in range(total) if black[i])


def is_colorable(g: ObservabilityGraph) -> bool:
    """True iff the closure blackens every state node; sensors are exempt."""
    black = force_closure(g).black
    return all(v in black for v in range(g.n_states))


def certify_sso(a: PatternMatrix, c: PatternMatrix) -> Certificate:
    """Certify strong structural observability of a pattern pair.

    Runs the closure on the observability graph of the state pattern and of
    its nonzero-diagonal companion, whose graph is derived from the first
    one's. Both traces are kept so a verdict can be replayed and rendered
    step by step.
    """
    measured = sensor_states(a, c)
    graph = compile_pattern(a)
    verdicts = []
    for g in (graph, graph.companion()):
        black, trace = g.run(measured)
        verdicts += [all(black), tuple(trace)]
    return Certificate(*verdicts)
