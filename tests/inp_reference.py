"""The line-by-line INP parser, the reference for the bulk ``strucsense.wdn.parse_inp``.

It reads one line at a time and raises at the first offending line, so it
states directly the networks and ``ParseError`` messages and lines the bulk
parser must reproduce.
"""

from strucsense.wdn import _LINK_SECTIONS, _NODE_SECTIONS, ParseError, WdnNetwork


def parse_inp(text: str) -> WdnNetwork:
    """Parse the topology sections of an EPANET INP file.

    Node and link order follow the file. ';' starts a comment, blank lines
    are skipped, unknown sections are ignored. At least one link section
    (pipes, pumps, or valves) must be present; endpoints must resolve to
    declared nodes; labels must be unique within nodes and within links.
    """
    nodes, links = [], []  # (label, kind) and (label, kind, from label, to label), in file order
    node_lines, link_lines = {}, {}
    seen_link_section = False
    # the current section, resolved at its header: the kind its records take, if any
    node_kind = link_kind = None

    # lines end at "\n" alone (a trailing "\r" is whitespace): str.splitlines would also
    # break at form feeds and other separators that may sit inside a comment
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if ";" in raw:
            raw = raw.partition(";")[0]
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0][0] == "[":
            name = raw.strip().strip("[]").strip().upper()
            node_kind, link_kind = _NODE_SECTIONS.get(name), _LINK_SECTIONS.get(name)
            if link_kind is not None:
                seen_link_section = True
            continue
        if node_kind is not None:
            label = tokens[0]
            if label in node_lines:
                raise ParseError(f"duplicate node label {label!r}", lineno)
            node_lines[label] = lineno
            nodes.append((label, node_kind))
        elif link_kind is not None:
            if len(tokens) < 3:
                raise ParseError(f"link line needs id and two endpoints: {raw.strip()!r}", lineno)
            label, from_label, to_label = tokens[0], tokens[1], tokens[2]
            if label in link_lines:
                raise ParseError(f"duplicate link label {label!r}", lineno)
            if from_label == to_label:
                raise ParseError(f"link {label!r} connects node {from_label!r} to itself", lineno)
            link_lines[label] = lineno
            links.append((label, link_kind, from_label, to_label))

    if not seen_link_section:
        raise ParseError("no link section ([PIPES], [PUMPS] or [VALVES]) found")
    for label, _, *endpoints in links:
        for endpoint in endpoints:
            if endpoint not in node_lines:
                raise ParseError(f"link {label!r} references undeclared node {endpoint!r}", link_lines[label])
    index = {label: i for i, (label, _) in enumerate(nodes)}
    node_labels, node_kinds = tuple(zip(*nodes)) or ((), ())
    link_labels, link_kinds, froms, tos = tuple(zip(*links)) or ((), (), (), ())
    ends = tuple(index[label] for label in froms), tuple(index[label] for label in tos)
    return WdnNetwork(node_labels, node_kinds, link_labels, link_kinds, ends)
