"""Water-network ingestion and the structured state pattern it induces.

Reads the topology subset of the EPANET INP dialect (junctions, reservoirs,
tanks, pipes, pumps, valves) and builds, in one pass over the link list, the
state graph of the block pattern whose states are one flow per link followed
by one head per hydraulic node: star self-loops on flows, unknown self-loops
on heads, and star couplings wherever a link meets a node. The pattern itself
is built only on request, and no dense node-by-link array ever is. Hydraulic
parameters are never parsed; only topology shapes the pattern, and a
``[COORDINATES]`` section is skipped like any other the parser does not read.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .netgraph import StateGraph, outside, star_graph
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


class WdnNetwork(NamedTuple):
    """Topological view of a water network: its columns, in file order.

    ``ends`` holds the node indices of the links' from-nodes and those of
    their to-nodes; an endpoint's label is ``node_labels`` at its index.
    """

    node_labels: tuple
    node_kinds: tuple  # junction | reservoir | tank
    link_labels: tuple
    link_kinds: tuple  # pipe | pump | valve
    ends: tuple  # (from-node indices, to-node indices), in link order

    @property
    def n_nodes(self) -> int:
        return len(self.node_labels)

    @property
    def n_links(self) -> int:
        return len(self.link_labels)


def _sections(text: str, lines: list) -> list:
    """``(name, first body line, end line)`` per section header, in file order; indices into ``lines``.

    A header is a line whose first token, once its comment is cut, starts
    with "[": only the lines holding a "[" are looked at, found by scanning
    ``text``. Its body runs to the next header or the end of the text.
    """
    headers, lineno, start = [], 0, 0
    pos = text.find("[")
    while pos >= 0:
        lineno += text.count("\n", start, pos)
        raw = lines[lineno].partition(";")[0]
        tokens = raw.split(None, 1)
        if tokens and tokens[0][0] == "[":
            headers.append((raw.strip().strip("[]").strip().upper(), lineno))
        start = text.find("\n", pos)
        if start < 0:
            break
        pos = text.find("[", start)
    ends = [line for _, line in headers[1:]] + [len(lines)]
    return [(name, line + 1, end) for (name, line), end in zip(headers, ends)]


def _first_error(lines: list, sections: list) -> ParseError:
    """The error of a text a bulk check refused, found line by line.

    Precedence: the first offending node or link line in file order (on a
    link line: too few fields, then a duplicate label, then a self-loop),
    then a missing link section, then the first undeclared endpoint in link
    order, from-node before to-node.
    """
    node_labels, link_ends = set(), {}  # link label -> (line, from label, to label)
    for name, start, end in sections:
        is_node = name in _NODE_SECTIONS
        if not is_node and name not in _LINK_SECTIONS:
            continue
        for lineno, raw in enumerate(lines[start:end], start + 1):
            raw = raw.partition(";")[0]
            tokens = raw.split()
            if not tokens:
                continue
            label = tokens[0]
            if is_node:
                if label in node_labels:
                    return ParseError(f"duplicate node label {label!r}", lineno)
                node_labels.add(label)
            elif len(tokens) < 3:
                return ParseError(f"link line needs id and two endpoints: {raw.strip()!r}", lineno)
            elif label in link_ends:
                return ParseError(f"duplicate link label {label!r}", lineno)
            elif tokens[1] == tokens[2]:
                return ParseError(f"link {label!r} connects node {tokens[1]!r} to itself", lineno)
            else:
                link_ends[label] = (lineno, tokens[1], tokens[2])
    if not any(name in _LINK_SECTIONS for name, _, _ in sections):
        return ParseError("no link section ([PIPES], [PUMPS] or [VALVES]) found")
    for label, (lineno, *endpoints) in link_ends.items():
        for endpoint in endpoints:
            if endpoint not in node_labels:
                return ParseError(f"link {label!r} references undeclared node {endpoint!r}", lineno)
    raise AssertionError("a bulk check refused a text that the line-by-line checks accept")


def parse_inp(text: str) -> WdnNetwork:
    """Parse the topology sections of an EPANET INP file.

    Node and link order follow the file. ';' starts a comment, blank lines
    are skipped, unknown sections are ignored. At least one link section
    (pipes, pumps, or valves) must be present; endpoints must resolve to
    declared nodes; labels must be unique within nodes and within links.

    The text is split into lines once; each section body is tokenised in one
    comprehension, keeping only the fields read, and checked in bulk. Each
    link's endpoints are resolved to node indices here, once, and kept on
    the network as its ``ends``. Only a text some check refuses is walked
    line by line, to report its first offending line.
    """
    # lines end at "\n" alone (a trailing "\r" is whitespace): str.splitlines would also
    # break at form feeds and other separators that may sit inside a comment
    lines = text.split("\n")
    sections = _sections(text, lines)
    node_labels, node_kinds, link_rows, link_kinds = [], [], [], []
    for name, start, end in sections:
        if name in _NODE_SECTIONS:
            labels = [tokens[0] for raw in lines[start:end] if (tokens := raw.partition(";")[0].split(None, 1))]
            node_labels += labels
            node_kinds += [_NODE_SECTIONS[name]] * len(labels)
        elif name in _LINK_SECTIONS:
            rows = [tokens for raw in lines[start:end] if (tokens := raw.partition(";")[0].split(None, 3))]
            link_rows += rows
            link_kinds += [_LINK_SECTIONS[name]] * len(rows)

    node = dict(zip(node_labels, range(len(node_labels))))
    link_labels = froms = tos = ()  # the columns of well-formed link lines
    if link_rows and min(map(len, link_rows)) >= 3:
        columns = zip(*link_rows)
        link_labels, froms, tos = next(columns), next(columns), next(columns)
    ends = tuple(map(node.get, froms)), tuple(map(node.get, tos))
    if (
        len(node) < len(node_labels)
        or len(link_labels) < len(link_rows)  # a line with too few fields
        or len(set(link_labels)) < len(link_labels)
        or any(map(str.__eq__, froms, tos))
        or not any(name in _LINK_SECTIONS for name, _, _ in sections)
        or None in ends[0]
        or None in ends[1]
    ):
        raise _first_error(lines, sections)
    return WdnNetwork(tuple(node_labels), tuple(node_kinds), link_labels, tuple(link_kinds), ends)


def write_incidence_csv(net: WdnNetwork, path) -> None:
    """Write the node-by-link incidence as CSV, one row at a time, read off the link list.

    Row ``i`` is node ``i``, column ``j`` link ``j``, both in file order: ``1``
    at a link's from-node, ``-1`` at its to-node, ``0`` elsewhere. A network
    with no nodes writes one empty line.
    """
    ends = [[] for _ in range(net.n_nodes)]  # (link, entry) pairs per node
    for j, (a, b) in enumerate(zip(*net.ends)):
        ends[a].append((j, "1"))
        ends[b].append((j, "-1"))
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
    m = net.n_links
    flows, heads = [], [[] for _ in range(net.n_nodes)]
    for j, (a, b) in enumerate(zip(*net.ends)):
        if a > b:
            a, b = b, a
        flows.append((m + a, m + b))
        heads[a].append(j)
        heads[b].append(j)
    loops = (Entry.STAR,) * m + (Entry.UNKNOWN,) * net.n_nodes
    return star_graph(tuple(flows) + tuple([tuple(h) for h in heads]), loops)


def structured_state_labels(net: WdnNetwork) -> list:
    """State labels matching the structured pattern's ordering."""
    return ["q:" + label for label in net.link_labels] + ["h:" + label for label in net.node_labels]


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
                raise ValueError(outside(f"{key} pair ({i}, {j})", n))
            bucket.add((i, j))
            bucket.add((j, i))
    return StateGraph(n, frozenset(star), frozenset(unknown))
