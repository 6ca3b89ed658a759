"""Color-change closure and the two-graph observability certificate.

The observability graph joins state nodes (edges read off the transposed
state pattern) with one sensor node per output row, each pointing at its
measured state. Starting all white, a node forces its unique white
out-neighbor along a star edge once every other out-neighbor (star and
unknown alike, self-loops included) is black; the forcer itself may still
be white. If the closure blackens every state node the graph is colorable.

The certificate (``Certificate.of``) reads one sensor set's closed runs on
A's graph and on its nonzero-diagonal companion's: the system is strongly
structurally observable exactly when both colour every state. ``PipelineRun``
closes its placement's states; ``certify_sso`` decodes an output pattern first.

The state part of that graph is the state graph's own directed lists, so
a closure runs on a ``StateGraph`` itself, one ``ClosureRun`` per sensor
set, which the exhaustive search resumes with more sensors; the
companion's graph (``netgraph.companion``) shares those lists and rewrites
the self-loop flags only. Every closure runs this one engine.
``build_observability_graph``, ``force_closure_reference`` and
``replay_trace`` are the slow independent checks: they build and close an
explicit ``ObservabilityGraph`` from the pattern itself, and nothing in
this package calls them; the tests and the benchmark's output checks do.
"""

from __future__ import annotations

import json
import random
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import NamedTuple

from .netgraph import StateGraph, companion, outside
from .pattern import Entry, PatternMatrix

# self-loop flags ``_close`` compares against, bound once: an Enum attribute lookup costs
# ~0.14 us, a few percent of one closure run on a 16-state search graph
_NO_LOOP, _STAR_LOOP = Entry.ZERO, Entry.STAR


class ObservabilityGraph(NamedTuple):
    """States 0..n_states-1 followed by sensor nodes, with out-edge lists."""

    n_states: int
    n_sensors: int
    star_out: tuple
    unknown_out: tuple

    @property
    def n_nodes(self) -> int:
        return self.n_states + self.n_sensors


class ColoringState(NamedTuple):
    """Final black set plus the ordered forcing steps that produced it."""

    black: frozenset
    trace: tuple  # ordered (forcer, forced) pairs


class Certificate(NamedTuple):
    """Verdicts and traces for both colorability checks."""

    colorable_a: bool
    trace_a: tuple
    colorable_abar: bool
    trace_abar: tuple

    @classmethod
    def of(cls, a_run: ClosureRun, abar_run: ClosureRun) -> Certificate:
        """The verdicts and traces of one sensor set's closed runs on A and on Abar."""
        return cls(all(a_run.black), tuple(a_run.trace), all(abar_run.black), tuple(abar_run.trace))

    @property
    def sso(self) -> bool:
        return self.colorable_a and self.colorable_abar

    @property
    def graphs(self) -> tuple:
        """(name, colorable, trace) of the check on A, then on Abar."""
        return ("A", self.colorable_a, self.trace_a), ("Abar", self.colorable_abar, self.trace_abar)

    def as_dict(self) -> dict:
        """The JSON form; traces stay tuples of (forcer, forced) pairs, which JSON writes as arrays."""
        graphs = [{"name": name, "colorable": ok, "trace": trace} for name, ok, trace in self.graphs]
        return {"sso": self.sso, "graphs": graphs}

    def to_json(self) -> str:
        """``json.dumps(self.as_dict(), sort_keys=True)``, byte for byte, each trace in one C-level ``%`` pass."""
        graphs = ", ".join([
            '{"colorable": %s, "name": %s, "trace": [%s]}' % (
                json.dumps(ok), json.dumps(name),
                ", ".join(["[%d, %d]"] * len(trace)) % tuple(chain.from_iterable(trace)))
            for name, ok, trace in self.graphs])
        return '{"graphs": [%s], "sso": %s}' % (graphs, json.dumps(self.sso))


def sensor_states(c: PatternMatrix, n: int) -> tuple:
    """State measured by each output row, in row order.

    Raises unless the output pattern has one column per state (``n``), only
    stars, and exactly one star per row.
    """
    if c.cols != n:
        raise ValueError(f"output pattern has {c.cols} columns, expected {n}")
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
    if not a.is_square:
        raise ValueError(f"square state pattern required, got {a.rows}x{a.cols}")
    measured = sensor_states(c, a.rows)
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


class ClosureRun:
    """A closure on a ``StateGraph``'s observability graph that can take more sensors.

    It holds the black flags, per-node counts of white out-neighbours (self-loop included), the
    (forcer, forced) trace and the sensor count ``k``, but not the heap, empty once closed; sensor
    k is the virtual node ``n + k``, as in ``build_observability_graph``, whose closure's trace a
    run repeats. A sensor's key ``(n + k) * n + s`` sorts after every state forcing's
    ``v * n + u < n * n``, so the sensors wait in order outside the heap and the next one enters
    when it runs empty (``_close``). ``add`` resumes exactly (AIM Minimum Rank group, LAA 2008):
    the rule is monotone, so a forcing stays eligible until its target turns black, every order
    ends in the same black set, and a closed run is a valid start for a larger sensor set. Only
    the trace's order differs from a fresh run's.
    """

    def __init__(self, graph: StateGraph, measured=()):
        n, star_out, loops = graph.n, graph.star_out, graph.loops
        for state in measured:
            if not 0 <= state < n:  # a heap key decodes to its pair only for a state
                raise ValueError(outside(f"measured state {state}", n))
        none = _NO_LOOP
        self.graph, self.k, self.trace, self.black = graph, len(measured), [], [False] * n
        self.white_out = [len(nbrs) + (loop is not none) for nbrs, loop in zip(graph.out, loops)]
        # from all-white, a node with one out-neighbour forces it along a star: its loop, or else
        # its one off-diagonal out-neighbour. The seeds in node order; the sensors queue highest key first.
        seeds = [v * n + (v if loops[v] is not none else star_out[v][0]) for v, count in enumerate(self.white_out)
                 if count == 1 and (loops[v] is _STAR_LOOP or loops[v] is none and star_out[v])]
        self._close(seeds, [(n + k) * n + s for k, s in enumerate(measured)][::-1])

    def copy(self) -> "ClosureRun":
        """An independent run at the same point: adding to it leaves this one as it is."""
        twin = object.__new__(ClosureRun)
        twin.graph, twin.k, twin.trace = self.graph, self.k, self.trace[:]
        twin.black, twin.white_out = self.black[:], self.white_out[:]
        return twin

    def add(self, state: int) -> None:
        """Measure ``state`` as the next sensor and close again; a black state changes nothing."""
        n = self.graph.n
        if not 0 <= state < n:
            raise ValueError(outside(f"measured state {state}", n))
        self.k += 1
        self._close([(n + self.k - 1) * n + state])

    def _close(self, heap: list, sensors=()) -> None:
        """Apply the rule from ``heap``'s candidates to fixpoint, ascending pair first.

        A candidate (v, u) has exactly one white out-neighbour u, over a star edge, and is keyed
        ``v * n + u``: forced nodes are states (u < n), so key order is pair order. Counters make
        each step O(in-degree); a node's last white out-neighbour is found by one scan of its
        out-list, when its count reaches 1.

        ``sensors`` holds sensor keys ``(n + k) * n + s``, highest first. They wait outside the
        heap, and the next one enters only once the heap is empty: every state forcing's key is
        below ``n * n`` and every sensor's at least ``n * n``, rising with k, so a sensor key is
        the heap minimum exactly when no state forcing is pending, and then it is the lowest k
        left. So the schedule is that of one heap holding every key, while the heap itself holds a
        handful of candidates.
        """
        g = self.graph
        n, star_out, out, inn, loops = g.n, g.star_out, g.out, g.inn, g.loops
        none, star = _NO_LOOP, _STAR_LOOP
        black, white_out, trace = self.black, self.white_out, self.trace
        heapify(heap)
        push, pop = heappush, heappop  # locals: read per step
        while True:
            while heap:
                step = divmod(pop(heap), n)  # (forcer, forced), appended to the trace as it is
                u = step[1]
                if black[u]:
                    continue  # stale: someone else forced u first
                black[u] = True
                trace.append(step)
                # u's own loop just turned black. This repeats the inn[u] loop's scan for speed:
                # folding it in as `for w in (u, *inn[u])` when u is looped measured 13% slower on
                # exhaustive_min_sensors over 12-16-state graphs and 6% slower on 10x `place`.
                if loops[u] is not none:
                    white_out[u] -= 1
                    if white_out[u] == 1:
                        for last in out[u]:  # u is black: its last white out-neighbour is off-diagonal
                            if not black[last]:
                                break
                        if last in star_out[u]:
                            push(heap, u * n + last)
                for w in inn[u]:
                    white_out[w] -= 1
                    if white_out[w] == 1:
                        if black[w] or loops[w] is none:  # the last white out-neighbour is off-diagonal
                            for last in out[w]:
                                if not black[last]:
                                    break
                            if last in star_out[w]:
                                push(heap, w * n + last)
                        elif loops[w] is star:  # w's own loop is its last white out-edge
                            push(heap, w * n + w)
            if not sensors:
                break
            heap.append(sensors.pop())  # the heap is empty, so a one-key list is one


def force_closure_reference(g: ObservabilityGraph, order: random.Random | None = None) -> ColoringState:
    """Slow from-scratch closure: rescan every node for eligibility per step.

    Kept deliberately naive (no counters) as an independent check of the
    worklist engine, and the package's one random-order closure: ``order``
    picks among eligible forcings at random; without it the ascending pair
    is applied, the engine's one schedule.
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


def certify_sso(g: StateGraph, c: PatternMatrix) -> Certificate:
    """Certify strong structural observability of a state graph measured by ``c``.

    Closes the graph and its nonzero-diagonal companion from the states ``c``
    measures, as ``PipelineRun.certificate`` does from its placement's. Both
    traces are kept so a verdict can be replayed and rendered step by step.

    With no zero on the diagonal, Abar's black set lies inside A's, so Abar alone decides: A and
    Abar then have the same out-neighbour sets and every Abar loop is unknown, so an Abar node
    forces only once black and only as A's rule allows; by confluence (``ClosureRun``) A's closure
    contains Abar's. A zero on the diagonal breaks this.
    """
    measured = sensor_states(c, g.n)
    return Certificate.of(ClosureRun(g, measured), ClosureRun(companion(g), measured))
