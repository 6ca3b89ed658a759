"""Seeded input generators for the benchmark workloads.

The program under test sees only the files these write. Each generator also
returns what the benchmark needs to check the program's answers without
asking the program: the expected state pattern of a water network and its
sizes, or the pattern and minimum sensor count of an edge-list graph.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

# One L-town scale unit: 782 hydraulic nodes joined by a random tree whose
# parents lie within 30 indices, plus 124 chords spanning 2-40 indices.
# That gives 905 links, 1687 states and 124 independent cycles.
LTOWN_NODES = 782
LTOWN_CHORDS = 124
PARENT_WINDOW = 30
CHORD_SPAN = (2, 40)


@dataclass(frozen=True)
class WdnInput:
    """A generated water network: file text plus its expected structure."""

    text: str
    n_nodes: int
    links: tuple  # (from_index, to_index) per link, in file order
    labels: tuple  # state labels: q:<link> per link, then h:<node> per node

    @property
    def n_states(self) -> int:
        return len(self.links) + self.n_nodes

    @property
    def cycles(self) -> int:
        return len(self.links) - self.n_nodes + 1

    def pattern_sets(self) -> tuple:
        """Star and unknown positions of the structured pattern, flows first."""
        m = len(self.links)
        star = {(k, k) for k in range(m)}
        unknown = {(m + i, m + i) for i in range(self.n_nodes)}
        for k, (a, b) in enumerate(self.links):
            for node in (a, b):
                star.add((k, m + node))
                star.add((m + node, k))
        return star, unknown


def wdn_network(seed: int, n: int, chords: int) -> WdnInput:
    """EPANET INP text for a connected network of ``n`` nodes and ``n - 1 + chords`` links."""
    rng = random.Random(seed)
    links, pairs = [], set()
    for i in range(1, n):
        p = rng.randrange(max(0, i - PARENT_WINDOW), i)
        links.append((p, i))
        pairs.add((p, i))
    lo, hi = CHORD_SPAN
    while len(links) < n - 1 + chords:
        span = rng.randint(lo, hi)
        i = rng.randrange(n - span)
        if (i, i + span) not in pairs:
            pairs.add((i, i + span))
            links.append((i, i + span) if rng.random() < 0.5 else (i + span, i))

    node_label = [f"R{i}" if i == 0 else f"J{i}" for i in range(n)]
    kinds = ["pipe"] * len(links)
    for k in range(len(links)):
        r = rng.random()
        if r < 0.01:
            kinds[k] = "pump"
        elif r < 0.02:
            kinds[k] = "valve"
    link_label = [f"{kind[0].upper()}{k}" for k, kind in enumerate(kinds)]

    out = ["[TITLE]", f"synthetic network, seed {seed}, {n} nodes, {chords} chords", "", "[JUNCTIONS]",
           ";ID\tElev\tDemand\tPattern"]
    out += [f" {node_label[i]}\t{rng.randint(0, 120)}\t{rng.random():.3f}\t;" for i in range(1, n)]
    out += ["", "[RESERVOIRS]", ";ID\tHead", f" {node_label[0]}\t150", ""]
    sections = (("PIPES", "pipe", lambda: f"{rng.randint(10, 900)}\t{rng.choice((100, 150, 200, 300))}\t110\t0\tOpen"),
                ("PUMPS", "pump", lambda: "HEAD 1"),
                ("VALVES", "valve", lambda: "300\tPRV\t40\t0"))
    for section, kind, filler in sections:
        out.append(f"[{section}]")
        for k, (a, b) in enumerate(links):
            if kinds[k] == kind:
                out.append(f" {link_label[k]}\t{node_label[a]}\t{node_label[b]}\t{filler()}")
        out.append("")
    out += ["[COORDINATES]", ";Node\tX-Coord\tY-Coord"]
    out += [f" {node_label[i]}\t{rng.uniform(0, 5000):.2f}\t{rng.uniform(0, 5000):.2f}" for i in range(n)]
    out += ["", "[END]", ""]

    # the expected pattern follows file order: junctions before the
    # reservoir, and links section by section
    node_order = list(range(1, n)) + [0]
    position = {node: k for k, node in enumerate(node_order)}
    link_order = [k for kind in ("pipe", "pump", "valve") for k in range(len(links)) if kinds[k] == kind]
    file_links = tuple((position[links[k][0]], position[links[k][1]]) for k in link_order)
    labels = tuple(f"q:{link_label[k]}" for k in link_order) + tuple(f"h:{node_label[i]}" for i in node_order)
    return WdnInput("\n".join(out), n, file_links, labels)


@dataclass(frozen=True)
class DeskInput:
    """A generated edge-list graph: file text plus its pattern's positions."""

    text: str
    n: int
    star: frozenset
    unknown: frozenset
    minimum: int | None = None  # fewest sensors that certify, when known


def desk_graph(seed: int, n: int) -> DeskInput:
    """Connected symmetric graph on ``n`` states with at least one extreme node.

    A random tree plus n/3 chords, with half the diagonal star and half
    unknown, the self-loop structure of linearized flow networks. The last
    state hangs off one earlier state only, so an extreme node always exists.
    The chord and star-diagonal counts are fixed, not drawn, so graphs of one
    size cost about the same to search and pools from different seeds differ
    little in cost.
    """
    rng = random.Random(seed)
    pairs = set()
    for i in range(1, n - 1):
        p = rng.randrange(i)
        pairs.add((p, i))
    edges = len(pairs) + n // 3
    while len(pairs) < edges:
        i, j = rng.randrange(n - 1), rng.randrange(n - 1)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    pairs.add((rng.randrange(n - 1), n - 1))
    diag_star = sorted(rng.sample(range(n), n // 2))
    diag_unknown = [i for i in range(n) if i not in set(diag_star)]
    payload = {
        "n": n,
        "star": sorted([i, j] for (i, j) in pairs) + [[i, i] for i in diag_star],
        "unknown": [[i, i] for i in diag_unknown],
    }
    star = frozenset(pairs | {(j, i) for (i, j) in pairs} | {(i, i) for i in diag_star})
    unknown = frozenset((i, i) for i in diag_unknown)
    return DeskInput(json.dumps(payload), n, star, unknown)


def _colorable(out: list, star: list, black: int) -> bool:
    """The colour-change rule to fixpoint on bit masks: does every state turn black?

    A state with exactly one white out-neighbour, reached by a star edge,
    forces it. Sensors start their states black.
    """
    full = (1 << len(out)) - 1
    changed = True
    while changed and black != full:
        changed = False
        for v in range(len(out)):
            white = out[v] & ~black
            if white and not white & (white - 1) and white & star[v]:
                black |= white
                changed = True
    return black == full


def desk_minimum(desk: DeskInput, cap: int) -> int | None:
    """Fewest sensors whose closure colours both A and Abar, if at most ``cap``.

    The benchmark's own exhaustive search, on bit masks, so the expected
    answer does not come from the program. Abar's diagonal is unknown where
    A's is nonzero and star where it is zero.
    """
    n = desk.n

    def masks(star_pos, unknown_pos) -> tuple:
        out, star = [0] * n, [0] * n
        for (i, j) in star_pos:  # transposed: column j is the source
            out[j] |= 1 << i
            star[j] |= 1 << i
        for (i, j) in unknown_pos:
            out[j] |= 1 << i
        return out, star

    off = {(i, j) for (i, j) in desk.star if i != j}
    nonzero_diag = {(i, i) for i in range(n) if (i, i) in desk.star or (i, i) in desk.unknown}
    zero_diag = {(i, i) for i in range(n)} - nonzero_diag
    graphs = (masks(desk.star, desk.unknown), masks(off | zero_diag, nonzero_diag))
    for size in range(cap + 1):
        for combo in combinations(range(n), size):
            sensors = sum(1 << v for v in combo)
            if all(_colorable(out, star, sensors) for out, star in graphs):
                return size
    return None


def desk_graph_with_minimum(rng: random.Random, n: int, minimum: int) -> DeskInput:
    """Draw ``desk_graph``s on ``n`` states until one needs exactly ``minimum`` sensors.

    Fixing the minimum fixes how many configurations an exhaustive search
    must try (all subsets up to that size), so pools drawn from different
    seeds cost the same to search.
    """
    while True:
        desk = desk_graph(rng.getrandbits(32), n)
        if desk_minimum(desk, minimum) == minimum:
            return DeskInput(desk.text, desk.n, desk.star, desk.unknown, minimum)
