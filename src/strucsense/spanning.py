"""Spanning-tree extraction from a cyclic state graph.

Depth-first search over star edges only, self-loops ignored. Tie-breaking is
fixed (lowest-index root per component, neighbors explored in ascending
index order) so identical inputs always yield the identical tree. A stack of
the open node's ancestors' neighbour iterators keeps the walk O(n + m).
"""

from __future__ import annotations

from typing import NamedTuple

from .netgraph import StateGraph


class SpanningTree(NamedTuple):
    """Spanning forest: parent pointers and per-component roots."""

    parent: tuple  # parent index per node, None at roots
    roots: tuple

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def tree_edges(self) -> frozenset:
        """Undirected tree edges as (min, max) pairs, built from ``parent`` on every read.

        Placement and its counts never read them: one tree edge joins each
        non-root node to its parent, so their number is ``n - len(roots)``.
        """
        return frozenset((p, v) if p < v else (v, p) for v, p in enumerate(self.parent) if p is not None)

    def degrees(self) -> list:
        """Tree degree per node: its children, plus its parent unless it is a root.

        Read off ``parent`` rather than ``tree_edges`` (self-loops never enter a tree).
        """
        deg = [1] * self.n
        for root in self.roots:
            deg[root] = 0
        for p in self.parent:
            if p is not None:
                deg[p] += 1
        return deg


def spanning_tree_dfs(g: StateGraph) -> SpanningTree:
    """Extract a spanning forest of the star edges, one root per component.

    An edge joins the tree exactly when the search encounters an unvisited
    node, so the output is acyclic and spans every star component.
    Disconnected inputs are allowed and produce a forest.
    """
    adj = g.star_nbrs
    parent: list = [None] * g.n
    visited = [False] * g.n
    roots = []

    for root in range(g.n):
        if visited[root]:
            continue
        visited[root] = True
        roots.append(root)
        # open node v and its neighbour iterator top; the stack holds its ancestors' iterators atop a closing None
        v, top, stack = root, iter(adj[root]), [None]
        while top is not None:
            for u in top:
                if not visited[u]:
                    visited[u] = True
                    parent[u] = v
                    stack.append(top)
                    v, top = u, iter(adj[u])
                    break
            else:
                v, top = parent[v], stack.pop()  # back to the parent, where its iterator left off

    return SpanningTree(tuple(parent), tuple(roots))


def removed_chords(g: StateGraph, t: SpanningTree) -> set:
    """Star edges of ``g`` (self-loops excluded) that the tree dropped."""
    if t.n != g.n:
        raise ValueError(f"tree over {t.n} nodes does not match graph with {g.n}")
    pairs, edges = g.undirected_star_pairs(), t.tree_edges
    if not edges <= pairs:
        stray = min(edges - pairs)
        raise ValueError(f"tree edge {stray} is not a star edge of the graph")
    return pairs - edges
