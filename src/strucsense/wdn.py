"""Water-network ingestion and the structured state pattern it induces.

Reads the topology subset of the EPANET INP dialect (junctions, reservoirs,
tanks, pipes, pumps, valves, optional coordinates) and assembles, straight
from the link list, the block pattern whose states are one flow per link
followed by one head per hydraulic node: star self-loops on flows, unknown
self-loops on heads, and star couplings wherever a link meets a node. The
dense node-by-link incidence matrix is built only on request. Hydraulic
parameters are never parsed; only topology shapes the pattern.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .netgraph import StateGraph
from .pattern import PatternMatrix

_NODE_SECTIONS = {"JUNCTIONS": "junction", "RESERVOIRS": "reservoir", "TANKS": "tank"}
_LINK_SECTIONS = {"PIPES": "pipe", "PUMPS": "pump", "VALVES": "valve"}


class ParseError(ValueError):
    """Input file rejected; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)


@dataclass(frozen=True)
class HydraulicNode:
    label: str
    kind: str  # junction | reservoir | tank


@dataclass(frozen=True)
class Link:
    label: str
    kind: str  # pipe | pump | valve
    from_label: str
    to_label: str


@dataclass(frozen=True)
class WdnNetwork:
    """Topological view of a water network: labeled nodes and links, in file order."""

    nodes: tuple
    links: tuple
    coordinates: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def node_index(self, label: str) -> int:
        return self._node_lookup[label]

    @cached_property
    def _node_lookup(self) -> dict:
        return {node.label: i for i, node in enumerate(self.nodes)}


def parse_inp(text: str) -> WdnNetwork:
    """Parse the topology sections of an EPANET INP file.

    Node and link order follow the file. ';' starts a comment, blank lines
    are skipped, unknown sections are ignored. At least one link section
    (pipes, pumps, or valves) must be present; endpoints must resolve to
    declared nodes; labels must be unique within nodes and within links.
    """
    nodes, links = [], []
    node_lines, link_lines = {}, {}
    coordinates = {}
    seen_link_section = False
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().upper()
            section = name
            if name in _LINK_SECTIONS:
                seen_link_section = True
            continue
        tokens = line.split()
        if section in _NODE_SECTIONS:
            label = tokens[0]
            if label in node_lines:
                raise ParseError(f"duplicate node label {label!r}", lineno)
            node_lines[label] = lineno
            nodes.append(HydraulicNode(label, _NODE_SECTIONS[section]))
        elif section in _LINK_SECTIONS:
            if len(tokens) < 3:
                raise ParseError(f"link line needs id and two endpoints: {line!r}", lineno)
            label, from_label, to_label = tokens[0], tokens[1], tokens[2]
            if label in link_lines:
                raise ParseError(f"duplicate link label {label!r}", lineno)
            if from_label == to_label:
                raise ParseError(f"link {label!r} connects node {from_label!r} to itself", lineno)
            link_lines[label] = lineno
            links.append(Link(label, _LINK_SECTIONS[section], from_label, to_label))
        elif section == "COORDINATES":
            if len(tokens) >= 3:
                try:
                    coordinates[tokens[0]] = (float(tokens[1]), float(tokens[2]))
                except ValueError:
                    pass  # layout hints only; ignore malformed ones

    if not seen_link_section:
        raise ParseError("no link section ([PIPES], [PUMPS] or [VALVES]) found")
    declared = {node.label for node in nodes}
    for link in links:
        for endpoint in (link.from_label, link.to_label):
            if endpoint not in declared:
                raise ParseError(
                    f"link {link.label!r} references undeclared node {endpoint!r}",
                    link_lines[link.label],
                )
    return WdnNetwork(tuple(nodes), tuple(links), coordinates)


def to_inp_text(net: WdnNetwork) -> str:
    """Write a minimal INP round-trippable by :func:`parse_inp`."""
    out = ["[TITLE]", "exported network", ""]
    filler = {
        "junction": "0",
        "reservoir": "0",
        "tank": "0 10 0 20 50 0",
        "pipe": "1000 300 100",
        "pump": "HEAD 1",
        "valve": "300 PRV 0",
    }
    for section, kind in (("JUNCTIONS", "junction"), ("RESERVOIRS", "reservoir"), ("TANKS", "tank")):
        rows = [n for n in net.nodes if n.kind == kind]
        if rows:
            out.append(f"[{section}]")
            out.extend(f" {n.label}\t{filler[kind]}" for n in rows)
            out.append("")
    for section, kind in (("PIPES", "pipe"), ("PUMPS", "pump"), ("VALVES", "valve")):
        rows = [l for l in net.links if l.kind == kind]
        if rows:
            out.append(f"[{section}]")
            out.extend(f" {l.label}\t{l.from_label}\t{l.to_label}\t{filler[kind]}" for l in rows)
            out.append("")
    if not any(l.kind in ("pipe", "pump", "valve") for l in net.links):
        out.append("[PIPES]")
        out.append("")
    if net.coordinates:
        out.append("[COORDINATES]")
        out.extend(f" {label}\t{x}\t{y}" for label, (x, y) in sorted(net.coordinates.items()))
        out.append("")
    out.append("[END]")
    return "\n".join(out) + "\n"


def incidence(net: WdnNetwork) -> np.ndarray:
    """Node-by-link incidence: +1 at a link's from-node, -1 at its to-node."""
    mat = np.zeros((net.n_nodes, net.n_links))
    for j, link in enumerate(net.links):
        mat[net.node_index(link.from_label), j] = 1.0
        mat[net.node_index(link.to_label), j] = -1.0
    return mat


def write_incidence_csv(net: WdnNetwork, path) -> None:
    """Write ``incidence(net)`` as CSV (entries ``{:g}``), one row at a time, read off the link list."""
    ends = [[] for _ in range(net.n_nodes)]  # (link, entry) pairs per node
    for j, link in enumerate(net.links):
        ends[net.node_index(link.from_label)].append((j, "1"))
        ends[net.node_index(link.to_label)].append((j, "-1"))
    with open(path, "w") as f:
        for entries in ends:
            row = ["0"] * net.n_links
            for j, text in entries:
                row[j] = text
            f.write(",".join(row) + "\n")
        if not ends:
            f.write("\n")  # the empty matrix's CSV is one newline


def _structured(n_nodes: int, n_links: int, couplings) -> PatternMatrix:
    """Block pattern of the linearized network: flows first, heads after.

    Flows carry star self-loops (friction), heads carry unknown self-loops
    (local hydraulic effects may or may not be present), and each
    ``(link, node)`` coupling joins that link's flow state to the node's
    head with mirrored stars. The result is symmetric by construction.
    """
    m = n_links
    star = {(k, k) for k in range(m)}
    unknown = {(m + i, m + i) for i in range(n_nodes)}
    for j, i in couplings:
        star.add((j, m + i))
        star.add((m + i, j))
    return PatternMatrix(m + n_nodes, m + n_nodes, frozenset(star), frozenset(unknown), symmetric=True)


def structured_pattern(net: WdnNetwork) -> PatternMatrix:
    """Structured pattern of a network, read off its links (no dense matrix)."""
    node = net.node_index
    couplings = (
        (j, node(end)) for j, link in enumerate(net.links) for end in (link.from_label, link.to_label)
    )
    return _structured(net.n_nodes, net.n_links, couplings)


def build_structured_wdn(inc: np.ndarray) -> PatternMatrix:
    """Structured pattern of a node-by-link incidence (any nonzero couples)."""
    inc = np.asarray(inc, dtype=float)
    if inc.ndim != 2:
        raise ValueError("incidence matrix must be two-dimensional")
    rows, cols = np.nonzero(inc)
    return _structured(*inc.shape, zip(cols.tolist(), rows.tolist()))


def structured_state_labels(net: WdnNetwork) -> list:
    """State labels matching the structured pattern's ordering."""
    return [f"q:{link.label}" for link in net.links] + [f"h:{node.label}" for node in net.nodes]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_edge_list(text: str) -> StateGraph:
    """Build a state graph from JSON ``{"n": N, "star": [[i, j], ...], "unknown": ...}``.

    Pairs are symmetrized automatically, so any symmetric network can feed
    the placement pipeline without going through a water-network file.
    Raises ``ValueError`` naming the first malformed part.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError('edge list must be a JSON object with an integer "n"')
    if "n" not in data:
        raise ValueError('edge list has no "n"')
    n = data["n"]
    if not _is_int(n):
        raise ValueError(f'"n" must be an integer, got {json.dumps(n)}')
    star, unknown = set(), set()
    for key, bucket in (("star", star), ("unknown", unknown)):
        pairs = data.get(key, [])
        if not isinstance(pairs, list):
            raise ValueError(f'"{key}" must be a list of [i, j] pairs, got {json.dumps(pairs)}')
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
                raise ValueError(f"{key} entry {json.dumps(pair)} is not a pair of integers")
            i, j = pair
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"{key} pair ({i}, {j}) outside 0..{n - 1}")
            bucket.add((i, j))
            bucket.add((j, i))
    return StateGraph(n, frozenset(star), frozenset(unknown))


def to_pattern(g: StateGraph) -> PatternMatrix:
    """Square pattern whose graph is ``g`` (edges become entries one-to-one)."""
    return PatternMatrix(g.n, g.n, g.star_edges, g.unknown_edges, symmetric=g.is_symmetric())
