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
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass

from .pattern import PatternMatrix, make_abar


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


def build_observability_graph(a: PatternMatrix, c: PatternMatrix) -> ObservabilityGraph:
    """Join the transposed state pattern with one sensor node per output row.

    Sensor nodes carry exactly one out-edge (a star to their measured state)
    and no in-edges, so each is eligible to force immediately.
    """
    if not a.is_square:
        raise ValueError(f"square state pattern required, got {a.rows}x{a.cols}")
    if c.cols != a.rows:
        raise ValueError(f"output pattern has {c.cols} columns, expected {a.rows}")
    if c.unknown:
        raise ValueError("output pattern must contain only zeros and stars")
    n, p = a.rows, c.rows

    star_out = [[] for _ in range(n + p)]
    unknown_out = [[] for _ in range(n + p)]
    for (i, j) in a.star:  # transposed: column index becomes the source
        star_out[j].append(i)
    for (i, j) in a.unknown:
        unknown_out[j].append(i)

    stars_per_row = [0] * p
    for (k, j) in c.star:
        stars_per_row[k] += 1
        star_out[n + k].append(j)
    for k, count in enumerate(stars_per_row):
        if count != 1:
            raise ValueError(f"output row {k} has {count} stars, needs exactly 1")

    return ObservabilityGraph(
        n, p,
        tuple(tuple(sorted(x)) for x in star_out),
        tuple(tuple(sorted(x)) for x in unknown_out),
    )


def _closure(g: ObservabilityGraph, rng: random.Random | None) -> ColoringState:
    """Run the color-change rule to fixpoint over a worklist of candidates.

    Worklist keyed by white-out-neighbor counters: a node becomes a
    candidate when exactly one of its out-neighbors is still white and the
    edge to it is a star. Each application is O(in-degree of the forced
    node), so the whole closure is near-linear in edges. Without ``rng`` the
    ascending (forcer, forced) pair is applied first; with it, a uniformly
    random candidate.
    """
    total = g.n_nodes
    star_sets = [set(g.star_out[v]) for v in range(total)]
    out_all = [sorted(star_sets[v] | set(g.unknown_out[v])) for v in range(total)]
    in_nbrs = [[] for _ in range(total)]
    for v in range(total):
        for u in out_all[v]:
            in_nbrs[u].append(v)

    if rng is None:
        push, pop = heapq.heappush, heapq.heappop
    else:
        push = list.append

        def pop(pool: list) -> tuple:
            idx = rng.randrange(len(pool))
            pool[idx], pool[-1] = pool[-1], pool[idx]
            return pool.pop()

    white_out = [len(out_all[v]) for v in range(total)]
    black = [False] * total
    pool = []

    def add_candidate(v: int) -> None:
        u = next((w for w in out_all[v] if not black[w]), None)
        if u is not None and u in star_sets[v]:
            push(pool, (v, u))

    for v in range(total):
        if white_out[v] == 1:
            add_candidate(v)

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
                add_candidate(w)

    return ColoringState(frozenset(i for i in range(total) if black[i]), tuple(trace))


def force_closure(g: ObservabilityGraph) -> ColoringState:
    """Run the color-change rule to fixpoint, ascending (forcer, forced) first."""
    return _closure(g, None)


def force_closure_randomized(g: ObservabilityGraph, seed: int) -> ColoringState:
    """Closure applying a uniformly random eligible forcing at each step.

    Used to check that the final black set never depends on forcing order.
    """
    return _closure(g, random.Random(seed))


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
    its nonzero-diagonal companion. Both traces are kept so a verdict can
    be replayed and rendered step by step.
    """
    verdicts = []
    for pattern in (a, make_abar(a)):
        graph = build_observability_graph(pattern, c)
        closure = force_closure(graph)
        verdicts += [all(v in closure.black for v in range(graph.n_states)), closure.trace]
    return Certificate(*verdicts)
