"""Seeded random graph and pattern generators shared across the test suite."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st

from strucsense import PatternMatrix, PipelineRun, SensorPlacement, StateGraph, from_pattern
from strucsense.forcing import ClosureRun, ObservabilityGraph, force_closure_reference, sensor_states
from strucsense.spanning import SpanningTree
from strucsense.wdn import _LINK_SECTIONS, _NODE_SECTIONS, WdnNetwork

# node-by-link incidence of fixtures/triangle_wdn.inp: 1 at a link's from-node, -1 at its to-node
TRIANGLE_WDN_INC = ((-1, 1, 1, 0), (0, 0, -1, 1), (0, -1, 0, -1), (1, 0, 0, 0))


def graph_of(a: PatternMatrix) -> StateGraph:
    """The state graph of a square pattern, the only structural input of every stage."""
    return from_pattern(a)


def given_run(a: PatternMatrix, c: PatternMatrix) -> PipelineRun:
    """The pipeline record of ``a``'s graph measured where the output pattern ``c`` measures, in row order."""
    n = a.rows
    return PipelineRun(from_pattern(a), given=SensorPlacement(sensor_states(c, n), n, "given"))


def dense(X: dict, x: dict, n: int) -> tuple:
    """A witness's sparse ``X`` and ``x`` as an ``(n, n)`` array and a length-``n`` vector, zero off their keys."""
    mat, vec = np.zeros((n, n)), np.zeros(n)
    for (i, j), value in X.items():
        mat[i, j] = value
    for i, value in x.items():
        vec[i] = value
    return mat, vec


def unit_rows(c: PatternMatrix) -> np.ndarray:
    """The dense unit output of a one-star-per-row pattern: 1.0 at each star, 0 elsewhere."""
    mat = np.zeros((c.rows, c.cols))
    for (i, j) in c.star:
        mat[i, j] = 1.0
    return mat


def edge_set_degrees(t: SpanningTree) -> list:
    """Tree degree per node counted over the undirected edge set, the reference for ``degrees``."""
    deg = [0] * t.n
    for (i, j) in t.tree_edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def degree_leaves(t: SpanningTree) -> tuple:
    """The leaf rule stated on the edge-set degrees: every node of tree degree below two."""
    return tuple(v for v, d in enumerate(edge_set_degrees(t)) if d < 2)


def hand_built_forest(parent, roots) -> SpanningTree:
    """The forest of ``parent`` and ``roots``, its leaves from ``degree_leaves``."""
    t = SpanningTree(tuple(parent), tuple(roots), ())
    return t._replace(leaves=degree_leaves(t))


def structured_pattern(inc) -> PatternMatrix:
    """Structured pattern of a node-by-link incidence, written out entry by entry from its definition.

    States are one flow per link, then one head per node. Each flow carries a
    star self-loop, each head an unknown self-loop, and wherever link ``j``
    meets node ``i`` (any nonzero entry) flow ``j`` and head ``i`` are joined
    by mirrored stars. ``inc`` is a sequence of node rows.
    """
    n_nodes = len(inc)
    m = len(inc[0]) if n_nodes else 0
    star = {(j, j) for j in range(m)}
    unknown = {(m + i, m + i) for i in range(n_nodes)}
    for i, row in enumerate(inc):
        for j, value in enumerate(row):
            if value:
                star |= {(j, m + i), (m + i, j)}
    return PatternMatrix(m + n_nodes, m + n_nodes, frozenset(star), frozenset(unknown), symmetric=True)


def random_tree_pattern(seed: int, n_min: int = 2, n_max: int = 50) -> PatternMatrix:
    """Random tree with a random {zero, star, unknown} diagonal."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    star, unknown = set(), set()
    for i in range(1, n):
        p = rng.randrange(i)
        star.add((i, p))
        star.add((p, i))
    for i in range(n):
        kind = rng.choice("0*?")
        if kind == "*":
            star.add((i, i))
        elif kind == "?":
            unknown.add((i, i))
    return PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric=True)


def random_connected_pattern(seed: int, n_min: int = 2, n_max: int = 50) -> PatternMatrix:
    """Random connected graph (tree plus chords) with at least one extreme node.

    Diagonals are a star/unknown mix, the self-loop structure of linearized
    flow networks. A pendant node is attached when no degree-1 node came out
    of the draw.
    """
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    pairs = set()
    for i in range(1, n):
        p = rng.randrange(i)
        pairs.add((min(i, p), max(i, p)))
    for _ in range(rng.randint(0, max(1, n // 3))):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    deg = [0] * n
    for (i, j) in pairs:
        deg[i] += 1
        deg[j] += 1
    if 1 not in deg:
        pairs.add((0, n))
        n += 1
    star, unknown = set(), set()
    for (i, j) in pairs:
        star.add((i, j))
        star.add((j, i))
    for i in range(n):
        if rng.random() < 0.5:
            star.add((i, i))
        else:
            unknown.add((i, i))
    return PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric=True)


def random_wdn_pattern(seed: int, h_min: int = 2, h_max: int = 18) -> PatternMatrix:
    """Structured pattern of a random connected water network."""
    rng = random.Random(seed)
    n_h = rng.randint(h_min, h_max)
    links = [(rng.randrange(i), i) for i in range(1, n_h)]
    for _ in range(rng.randint(0, max(1, n_h // 2))):
        i, j = rng.randrange(n_h), rng.randrange(n_h)
        if i != j:
            links.append((i, j))
    deg = [0] * n_h
    for (i, j) in links:
        deg[i] += 1
        deg[j] += 1
    if 1 not in deg:
        links.append((0, n_h))
        n_h += 1
    inc = [[0] * len(links) for _ in range(n_h)]
    for col, (i, j) in enumerate(links):
        inc[i][col] = 1
        inc[j][col] = -1
    return structured_pattern(inc)


def tree_inp_text(n_h: int, seed: int = 0) -> str:
    """INP text of a random tree network on ``n_h`` junctions."""
    rng = random.Random(seed)
    lines = ["[JUNCTIONS]"] + [f" J{i} 0" for i in range(n_h)] + ["[PIPES]"]
    lines += [f" P{i} J{rng.randrange(i)} J{i} 100 300 100" for i in range(1, n_h)]
    return "\n".join(lines) + "\n"


def cyclic_inp_text(n_h: int, chords: int, seed: int = 0) -> str:
    """``tree_inp_text(n_h, seed)`` plus ``chords`` pipes between distinct random junction pairs."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < chords:
        pairs.add(tuple(sorted(rng.sample(range(n_h), 2))))
    return tree_inp_text(n_h, seed) + "".join(f" C{k} J{i} J{j} 100 300 100\n" for k, (i, j) in enumerate(sorted(pairs)))


def random_symmetric_pattern(seed: int, n_min: int = 2, n_max: int = 60) -> PatternMatrix:
    """Arbitrary symmetric pattern: random edges of both kinds, any diagonal."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    star, unknown = set(), set()
    target_edges = rng.randint(n - 1, 3 * n)
    for _ in range(target_edges):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        bucket = star if rng.random() < 0.8 else unknown
        if (i, j) not in star and (i, j) not in unknown:
            bucket.add((i, j))
            bucket.add((j, i))
    for i in range(n):
        kind = rng.choice("0*?")
        if kind == "*":
            star.add((i, i))
        elif kind == "?":
            unknown.add((i, i))
    return PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric=True)


def random_sensor_rows(rng: random.Random, n: int, max_sensors: int | None = None) -> PatternMatrix:
    """Output pattern measuring a random subset of states, one star per row."""
    cap = max_sensors if max_sensors is not None else max(1, n // 3)
    k = rng.randint(0, cap)
    measured = sorted(rng.sample(range(n), k)) if k else []
    star = frozenset((row, s) for row, s in enumerate(measured))
    return PatternMatrix(len(measured), n, star, frozenset())


def colors_all(graph: StateGraph, measured) -> bool:
    """True iff measuring ``measured`` blackens every state of ``graph``."""
    return len(ClosureRun(graph, measured).trace) == graph.n


def shuffled_closures(og: ObservabilityGraph, graph: StateGraph, measured, rng: random.Random) -> tuple:
    """Black states of one sensor set, closed in two orders ``rng`` draws.

    First the reference's on ``og``, picking at random among the eligible forcings; then the
    engine's on ``graph``, given ``measured`` one state at a time with ``ClosureRun.add`` in a
    shuffled order, the resume path the exhaustive search runs. By confluence both equal the
    ascending closure's black states.
    """
    reference = force_closure_reference(og, order=rng).black
    order = list(measured)
    rng.shuffle(order)
    closed = ClosureRun(graph)
    for state in order:
        closed.add(state)
    return reference, frozenset(v for v, b in enumerate(closed.black) if b)


@st.composite
def patterns_with_sensors(draw, max_states: int = 10):
    """A pattern of at most ``max_states`` states, symmetric or not, any diagonal, and sensors.

    Sensor tuples come in any order and may measure a state twice; both are
    legal output patterns.
    """
    n = draw(st.integers(1, max_states))
    cells = draw(st.lists(st.sampled_from("000*?"), min_size=n * n, max_size=n * n))
    symmetric = draw(st.booleans())
    star, unknown = set(), set()
    for i in range(n):
        for j in range(n):
            cell = cells[min(i, j) * n + max(i, j)] if symmetric else cells[i * n + j]
            if cell == "*":
                star.add((i, j))
            elif cell == "?":
                unknown.add((i, j))
    a = PatternMatrix(n, n, frozenset(star), frozenset(unknown), symmetric)
    measured = tuple(draw(st.lists(st.integers(0, n - 1), max_size=n)))
    return a, measured


def without_zero_diagonal(a: PatternMatrix, diag: str) -> PatternMatrix:
    """``a`` with its diagonal replaced by ``diag``'s stars and unknowns."""
    star = {p for p in a.star if p[0] != p[1]} | {(i, i) for i, ch in enumerate(diag) if ch == "*"}
    unknown = {p for p in a.unknown if p[0] != p[1]} | {(i, i) for i, ch in enumerate(diag) if ch == "?"}
    return PatternMatrix(a.rows, a.cols, frozenset(star), frozenset(unknown))


NODE_KINDS = ("junction", "reservoir", "tank")  # INP section order
LINK_KINDS = ("pipe", "pump", "valve")
_LABELS = st.text(alphabet="abxyz019_-.", min_size=1, max_size=3)


@st.composite
def wdn_networks(draw, max_nodes: int = 8, max_links: int = 12) -> WdnNetwork:
    """A water network in INP section order, as ``parse_inp`` reads one back.

    Few nodes and many links, so parallel links between one pair and nodes
    with no link are common; every node and link kind occurs.
    """
    labels = draw(st.lists(_LABELS, max_size=max_nodes, unique=True))
    kinds = [draw(st.sampled_from(NODE_KINDS)) for _ in labels]
    nodes = sorted(zip(kinds, labels), key=lambda node: NODE_KINDS.index(node[0]))
    node_kinds, node_labels = tuple(zip(*nodes)) or ((), ())
    links = []
    if len(nodes) >= 2:
        index = st.integers(0, len(nodes) - 1)
        pairs = draw(st.lists(st.tuples(index, index).filter(lambda pair: pair[0] != pair[1]), max_size=max_links))
        link_labels = draw(st.lists(_LABELS, min_size=len(pairs), max_size=len(pairs), unique=True))
        kinds = [draw(st.sampled_from(LINK_KINDS)) for _ in pairs]
        links = sorted(zip(kinds, link_labels, *zip(*pairs)), key=lambda link: LINK_KINDS.index(link[0]))
    link_kinds, link_labels, froms, tos = tuple(zip(*links)) or ((), (), (), ())
    return WdnNetwork(node_labels, node_kinds, link_labels, link_kinds, (froms, tos))


def to_inp_text(net: WdnNetwork) -> str:
    """A minimal INP text of ``net``, which ``parse_inp`` reads back as ``net``."""
    out = ["[TITLE]", "exported network", ""]
    filler = {
        "junction": "0",
        "reservoir": "0",
        "tank": "0 10 0 20 50 0",
        "pipe": "1000 300 100",
        "pump": "HEAD 1",
        "valve": "300 PRV 0",
    }
    labels = net.node_labels
    nodes = list(zip(net.node_kinds, labels))
    links = [(kind, f"{label}\t{labels[a]}\t{labels[b]}")
             for label, kind, a, b in zip(net.link_labels, net.link_kinds, *net.ends)]
    for sections, rows in ((_NODE_SECTIONS, nodes), (_LINK_SECTIONS, links)):
        for section, kind in sections.items():
            body = [f" {text}\t{filler[kind]}" for row_kind, text in rows if row_kind == kind]
            if body:
                out += [f"[{section}]", *body, ""]
    if not any(kind in _LINK_SECTIONS.values() for kind in net.link_kinds):
        out += ["[PIPES]", ""]
    out.append("[END]")
    return "\n".join(out) + "\n"
