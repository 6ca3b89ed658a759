"""Graphviz DOT rendering of graphs, trees, placements, and forcing traces.

Star edges are solid, unknown edges dashed, dropped chords dotted. Sensor
nodes render as red hexagons pointing at their measured state. Symmetric
graphs render undirected; anything else falls back to a digraph.
"""

from __future__ import annotations

from .netgraph import StateGraph
from .pattern import Entry
from .placement import SensorPlacement
from .spanning import SpanningTree, removed_chords


def _quote(name) -> str:
    text = str(name).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _arcs(g: StateGraph) -> list:
    """Each arc (v, kind, u) of ``g``, kind 0 a star and 1 an unknown: off-diagonal ones, then self-loops."""
    arcs = [(v, 0, u) for v, nbrs in enumerate(g.star_out) for u in nbrs]
    arcs += [(v, 1, u) for v, nbrs in enumerate(g.out) for u in nbrs if u not in g.star_out[v]]
    arcs += [(v, 0 if loop is Entry.STAR else 1, v) for v, loop in enumerate(g.loops) if loop is not Entry.ZERO]
    return arcs


def _render(g: StateGraph, labels, flow_count, name, chords=frozenset(), sensors=()) -> str:
    """Header, node declarations, sensor hexagons, then one line per arc: star arcs, then unknown ones, each ascending."""
    keyword, connector = ("graph", "--") if g.is_symmetric() else ("digraph", "->")
    lines = [f"{keyword} {_quote(name)} {{"]
    for v in range(g.n):
        attrs = []
        if flow_count is not None:
            attrs.append("shape=box" if v < flow_count else "shape=circle")
        label = labels[v]
        if label != str(v):
            attrs.append(f"label={_quote(label)}")
        decl = f"  {_quote(v)}"
        if attrs:
            decl += " [" + ", ".join(attrs) + "]"
        lines.append(decl + ";")
    for k, state in enumerate(sensors):
        sensor = f"s{k}"
        lines.append(f"  {_quote(sensor)} [shape=hexagon, color=red, label={_quote(sensor)}];")
        lines.append(f"  {_quote(sensor)} {connector} {_quote(state)} [style=solid, color=red];")
    for kind, i, j in sorted((kind, v, u) for v, kind, u in _arcs(g)):
        if connector == "--" and i > j:
            continue  # undirected means symmetric: arc (j, i) stands for the pair
        style = "dotted" if (min(i, j), max(i, j)) in chords else ("solid", "dashed")[kind]
        lines.append(f"  {_quote(i)} {connector} {_quote(j)} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_dot(g: StateGraph, labels, flow_count=None) -> str:
    """Render a state graph; solid star edges, dashed unknown edges."""
    return _render(g, labels, flow_count, "network")


def tree_dot(g: StateGraph, t: SpanningTree, labels, flow_count=None) -> str:
    """Render the graph with dropped chords dotted, kept tree edges solid."""
    return _render(g, labels, flow_count, "spanning_tree", chords=removed_chords(g, t))


def placement_dot(g: StateGraph, placement: SensorPlacement, labels, flow_count=None) -> str:
    """Render the graph plus one red hexagon sensor per measured state."""
    return _render(g, labels, flow_count, "placement", sensors=placement.measured)


def trace_dot(g: StateGraph, measured, trace, labels) -> str:
    """Render the observability graph of ``g`` measured at ``measured``, with forcing step numbers.

    Each state points at its out-neighbours in ``g`` (self-loops included)
    and sensor k, node ``g.n + k``, at its measured state. Forced nodes show
    the 1-based step at which they turned black and the forcing edges are
    drawn bold, so the closure can be replayed visually.
    """
    step_of = {u: k + 1 for k, (_, u) in enumerate(trace)}
    forcing_edges = {(v, u) for (v, u) in trace}
    lines = ['digraph "forcing_trace" {']
    for v in range(g.n):
        label = labels[v]
        step = f"#{step_of[v]}" if v in step_of else "white"
        fill = ", style=filled, fillcolor=gray80" if v in step_of else ""
        lines.append(f"  {_quote(v)} [label={_quote(f'{label}|{step}')}{fill}];")
    for k in range(len(measured)):
        lines.append(f"  {_quote(g.n + k)} [shape=hexagon, color=red, label={_quote(f's{k}')}];")
    # per node, its star arcs then its unknown ones, ascending; sensors last
    sensor_arcs = [(g.n + k, 0, u) for k, u in enumerate(measured)]
    for v, kind, u in sorted(_arcs(g) + sensor_arcs):
        extra = ", penwidth=2.5, color=black" if (v, u) in forcing_edges else ""
        lines.append(f"  {_quote(v)} -> {_quote(u)} [style={('solid', 'dashed')[kind]}{extra}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
