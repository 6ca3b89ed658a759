"""Water-network ingestion and the structured state pattern it induces.

Reads the topology subset of the EPANET INP dialect (junctions, reservoirs,
tanks, pipes, pumps, valves, optional coordinates, parsed only if read) and
builds, in one pass over the link list, the state graph of the block pattern
whose states are one flow per link followed by one head per hydraulic node:
star self-loops on flows, unknown self-loops on heads, and star couplings
wherever a link meets a node. The pattern itself is built only on request,
and no dense node-by-link array ever is. Hydraulic parameters are never
parsed; only topology shapes the pattern.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import NamedTuple

from .netgraph import StateGraph, star_graph
from .pattern import Entry

_NODE_SECTIONS = {"JUNCTIONS": "junction", "RESERVOIRS": "reservoir", "TANKS": "tank"}
_LINK_SECTIONS = {"PIPES": "pipe", "PUMPS": "pump", "VALVES": "valve"}
# most states an edge list may declare, 12x the 84,399 of a network 50x L-town's size:
# a few bytes of JSON must not size per-state lists beyond any real network
MAX_EDGE_LIST_STATES = 1 << 20


class ParseError(ValueError):
    """Input file rejected; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)


class HydraulicNode(NamedTuple):
    label: str
    kind: str  # junction | reservoir | tank


class Link(NamedTuple):
    label: str
    kind: str  # pipe | pump | valve
    from_label: str
    to_label: str


class WdnNetwork:
    """Topological view of a water network: labeled nodes and links, in file order."""

    def __init__(self, nodes: tuple, links: tuple, coordinates: dict | None = None):
        self.nodes, self.links = nodes, links
        self._coordinate_lines = ()  # raw [COORDINATES] lines that parse_inp kept, read on first use
        if coordinates is not None:
            self.coordinates = coordinates

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.nodes, self.links, self.coordinates) == (other.nodes, other.links, other.coordinates)

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

    @cached_property
    def coordinates(self) -> dict:
        """Layout hints by node label, parsed on first read: no command's output reads them."""
        return _parse_coordinates(self._coordinate_lines)


def _parse_coordinates(lines) -> dict:
    """``label -> (x, y)`` from ``[COORDINATES]`` lines; a later line wins, malformed ones are skipped."""
    coordinates = {}
    for raw in lines:
        tokens = raw.partition(";")[0].split()
        if len(tokens) >= 3:
            try:
                coordinates[tokens[0]] = (float(tokens[1]), float(tokens[2]))
            except ValueError:
                pass  # layout hints only; ignore malformed ones
    return coordinates


def parse_inp(text: str) -> WdnNetwork:
    """Parse the topology sections of an EPANET INP file.

    Node and link order follow the file. ';' starts a comment, blank lines
    are skipped, unknown sections are ignored. At least one link section
    (pipes, pumps, or valves) must be present; endpoints must resolve to
    declared nodes; labels must be unique within nodes and within links.
    """
    nodes, links = [], []
    node_lines, link_lines = {}, {}
    coordinate_lines = []
    seen_link_section = False
    # the current section, resolved at its header: the kind its records take, if any
    node_kind = link_kind = None
    in_coordinates = False

    # lines end at "\n" alone (a trailing "\r" is whitespace): str.splitlines would also
    # break at form feeds and other separators that may sit inside a comment
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if in_coordinates and "[" not in raw:  # kept whole; a line holding "[" may be a header
            coordinate_lines.append(raw)
            continue
        if ";" in raw:
            raw = raw.partition(";")[0]
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0][0] == "[":
            name = raw.strip().strip("[]").strip().upper()
            node_kind, link_kind = _NODE_SECTIONS.get(name), _LINK_SECTIONS.get(name)
            in_coordinates = name == "COORDINATES"
            if link_kind is not None:
                seen_link_section = True
            continue
        if node_kind is not None:
            label = tokens[0]
            if label in node_lines:
                raise ParseError(f"duplicate node label {label!r}", lineno)
            node_lines[label] = lineno
            nodes.append(HydraulicNode(label, node_kind))
        elif link_kind is not None:
            if len(tokens) < 3:
                raise ParseError(f"link line needs id and two endpoints: {raw.strip()!r}", lineno)
            label, from_label, to_label = tokens[0], tokens[1], tokens[2]
            if label in link_lines:
                raise ParseError(f"duplicate link label {label!r}", lineno)
            if from_label == to_label:
                raise ParseError(f"link {label!r} connects node {from_label!r} to itself", lineno)
            link_lines[label] = lineno
            links.append(Link(label, link_kind, from_label, to_label))
        elif in_coordinates:
            coordinate_lines.append(raw)

    if not seen_link_section:
        raise ParseError("no link section ([PIPES], [PUMPS] or [VALVES]) found")
    for link in links:
        for endpoint in (link.from_label, link.to_label):
            if endpoint not in node_lines:
                raise ParseError(
                    f"link {link.label!r} references undeclared node {endpoint!r}",
                    link_lines[link.label],
                )
    net = WdnNetwork(tuple(nodes), tuple(links))
    net._coordinate_lines = coordinate_lines
    return net


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


def write_incidence_csv(net: WdnNetwork, path) -> None:
    """Write the node-by-link incidence as CSV, one row at a time, read off the link list.

    Row ``i`` is node ``i``, column ``j`` link ``j``, both in file order: ``1``
    at a link's from-node, ``-1`` at its to-node, ``0`` elsewhere. A network
    with no nodes writes one empty line.
    """
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


def state_graph(net: WdnNetwork) -> StateGraph:
    """The structured pattern's graph, read off the links in one pass: flows first, heads after.

    Link ``j``'s flow is state ``j``; node ``i``'s head is state ``n_links + i``.
    Flows carry star self-loops (friction), heads carry unknown self-loops
    (local hydraulic effects may or may not be present), and each link joins
    its flow to the heads of its two end nodes with mirrored stars. The pass
    fills each head's list in ascending link order, so nothing is hashed or
    sorted. ``to_pattern`` of the graph is the structured pattern; the
    pattern and the graph's edge sets are built only if read.
    """
    m, node = net.n_links, net._node_lookup
    flows, heads = [], [[] for _ in range(net.n_nodes)]
    for j, link in enumerate(net.links):
        a, b = node[link.from_label], node[link.to_label]
        if a > b:
            a, b = b, a
        flows.append((m + a, m + b))
        heads[a].append(j)
        heads[b].append(j)
    loops = (Entry.STAR,) * m + (Entry.UNKNOWN,) * net.n_nodes
    return star_graph(tuple(flows) + tuple([tuple(h) for h in heads]), loops)


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
    if n < 0:
        raise ValueError(f'"n" must be non-negative, got {n}')
    if n > MAX_EDGE_LIST_STATES:
        raise ValueError(f'"n" = {n} exceeds the cap of {MAX_EDGE_LIST_STATES} states')
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
