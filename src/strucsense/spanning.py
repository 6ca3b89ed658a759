"""Spanning-tree extraction from a cyclic state graph.

Depth-first search over star edges only, self-loops ignored. Tie-breaking is
fixed (lowest-index root per component, neighbors explored in ascending
index order) so identical inputs always yield the identical tree. A stack of
the open node's ancestors' neighbour iterators keeps the walk O(n + m). The
walk also reports the forest's leaves, the states of tree degree below two:
a node that closes without having opened a child is a leaf (Tarjan, SIAM J.
Comput. 1972), and so is a root with one child.
"""

from __future__ import annotations

from typing import NamedTuple

from .netgraph import StateGraph


class SpanningTree(NamedTuple):
    """Spanning forest: parent pointers, per-component roots and the leaves."""

    parent: tuple  # parent index per node, None at roots
    roots: tuple
    leaves: tuple  # ascending nodes of tree degree below two, as ``degrees`` counts it

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

        Read off ``parent`` rather than ``tree_edges`` (self-loops never enter a tree);
        an independent reference for ``leaves``, which the walk reports.
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
    roots, leaves = [], []

    for root in range(g.n):
        if visited[root]:
            continue
        visited[root] = True
        roots.append(root)
        # open node v and its neighbour iterator top; the stack holds its ancestors' iterators atop a closing None.
        # fresh: v was opened last, so it has no child yet
        v, top, stack, fresh = root, iter(adj[root]), [None], True
        while top is not None:
            for u in top:
                if not visited[u]:
                    visited[u] = True
                    parent[u] = v
                    stack.append(top)
                    v, top, fresh = u, iter(adj[u]), True
                    break
            else:
                if fresh:  # v closes childless
                    leaves.append(v)
                    fresh = False
                v, top = parent[v], stack.pop()  # back to the parent, where its iterator left off

    # a root's first neighbour is its first child; it has one child when no other neighbour is its child
    leaves += [r for r in roots if adj[r] and r not in [parent[u] for u in adj[r][1:]]]
    leaves.sort()
    return SpanningTree(tuple(parent), tuple(roots), tuple(leaves))


def removed_chords(g: StateGraph, t: SpanningTree) -> set:
    """Star edges of ``g`` (self-loops excluded) that the tree dropped."""
    if t.n != g.n:
        raise ValueError(f"tree over {t.n} nodes does not match graph with {g.n}")
    pairs, edges = g.undirected_star_pairs(), t.tree_edges
    if not edges <= pairs:
        stray = min(edges - pairs)
        raise ValueError(f"tree edge {stray} is not a star edge of the graph")
    return pairs - edges
