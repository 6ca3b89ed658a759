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
one compiled graph, which runs on ``StateGraph``'s own neighbour lists;
the companion's graph rewrites its self-loop flags only. Every closure
runs this one engine; ``force_closure_reference`` and ``replay_trace`` are
the slow independent checks on an explicit ``ObservabilityGraph``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush

from .netgraph import from_pattern
from .pattern import Entry, PatternMatrix

# self-loop flags ``run`` compares against, bound once: an Enum attribute lookup costs
# ~0.14 us, a few percent of one closure run on a 16-state search graph
_NO_LOOP, _STAR_LOOP = Entry.ZERO, Entry.STAR


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


@dataclass(frozen=True)
class ColoringState:
    """Final black set plus the ordered forcing steps that produced it."""

    black: frozenset
    trace: tuple  # ordered (forcer, forced) pairs


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

    @property
    def graphs(self) -> tuple:
        """(name, colorable, trace) of the check on A, then on Abar."""
        return ("A", self.colorable_a, self.trace_a), ("Abar", self.colorable_abar, self.trace_abar)

    def as_dict(self) -> dict:
        graphs = [{"name": name, "colorable": ok, "trace": [[v, u] for (v, u) in trace]}
                  for name, ok, trace in self.graphs]
        return {"sso": self.sso, "graphs": graphs}

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


def build_observability_graph(a: PatternMatrix, c: PatternMatrix) -> ObservabilityGraph:
    """Join the transposed state pattern with one sensor node per output row.

    Sensor nodes carry exactly one out-edge (a star to their measured state)
    and no in-edges, so each is eligible to force immediately.
    """
    measured = sensor_states(a, c)
    n, p = a.rows, len(measured)
    star_out = [[] for _ in range(n + p)]
    unknown_out = [[] for _ in range(n + p)]
    for (i, j) in a.star:  # transposed: column index becomes the source
        star_out[j].append(i)
    for (i, j) in a.unknown:
        unknown_out[j].append(i)
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

    ``star_out``, ``out``, ``inn`` and ``loops`` are a ``StateGraph``'s own
    directed lists and self-loop flags, shared; compiling adds only
    ``out_degree`` (out-neighbours, self-loop included) and ``seeds`` (the
    forcings eligible from all-white). A run measuring states ``measured``
    adds sensor k as the virtual node ``n + k``, with one star out-edge to
    ``measured[k]`` and no in-edges: exactly the sensor nodes of
    ``build_observability_graph``, so a run pops and traces what a closure
    of that graph does.
    """

    star_out: tuple
    out: tuple
    inn: tuple
    loops: tuple
    n: int = field(init=False)
    out_degree: tuple = field(init=False)
    seeds: tuple = field(init=False)

    def __post_init__(self):
        none, loops, star_out = Entry.ZERO, self.loops, self.star_out
        out_degree = tuple([len(out) + (loop is not none) for out, loop in zip(self.out, loops)])
        # out-degree 1: the one out-neighbour is the loop, or else the only off-diagonal one
        seeds = tuple((v, v) if loops[v] is not none else (v, star_out[v][0])
                      for v, d in enumerate(out_degree)
                      if d == 1 and (loops[v] is Entry.STAR or loops[v] is none and star_out[v]))
        self.__dict__.update(n=len(self.out), out_degree=out_degree, seeds=seeds)

    def companion(self) -> "ClosureGraph":
        """The compiled graph of ``make_abar`` of this graph's pattern.

        Same lists; a missing self-loop becomes a star, a star or unknown one unknown.
        """
        none, star, unknown = Entry.ZERO, Entry.STAR, Entry.UNKNOWN
        return replace(self, loops=tuple([star if loop is none else unknown for loop in self.loops]))

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
        star_out, out, inn, loops = self.star_out, self.out, self.inn, self.loops
        none, star = _NO_LOOP, _STAR_LOOP
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
            # u's own loop just turned black. Handled apart from inn[u] because building
            # (u, *inn[u]) per step cost ~15% per configuration on the small search graphs.
            if loops[u] is not none:
                white_out[u] -= 1
                if white_out[u] == 1:
                    last = next(x for x in out[u] if not black[x])
                    if last in star_out[u]:
                        push(pool, (u, last))
            for w in inn[u]:
                white_out[w] -= 1
                if white_out[w] == 1:
                    if black[w] or loops[w] is none:
                        last = next(x for x in out[w] if not black[x])
                        if last in star_out[w]:
                            push(pool, (w, last))
                    elif loops[w] is star:  # w's own loop is its last white out-edge
                        push(pool, (w, w))
        return black, trace

    def colors_all(self, measured) -> bool:
        """True iff measuring ``measured`` blackens every compiled node."""
        return len(self.run(measured)[1]) == self.n


def compile_pattern(a: PatternMatrix) -> ClosureGraph:
    """The state part of the observability graph of ``a``, read off ``from_pattern(a, transpose=True)``."""
    g = from_pattern(a, transpose=True)
    return ClosureGraph(g.star_out, g.out, g.inn, g.loops)


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
