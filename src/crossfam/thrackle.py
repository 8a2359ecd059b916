"""Geometric thrackles and cycle-structure checks on geometric graphs.

A geometric thrackle is a straight-line drawing in which every two edges
either share an endpoint or cross properly. Cycle detection here is purely
combinatorial and takes one depth-first pass: each back edge closes one
cycle with the tree path below it. A graph is a forest iff there is no back
edge, and it contains an even cycle iff one of these cycles is even or two
of them share an edge (their union then joins two vertices by three
disjoint paths, two of which have lengths of equal parity and so close an
even cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .geometry import PointSet, Segment, _crosses, _integer_points, convex_position_points


@dataclass(frozen=True)
class GeometricGraph:
    """A point set plus a set of straight-line edges between its points."""

    pointset: PointSet
    edges: frozenset[Segment]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        n = len(self.pointset)
        for e in self.edges:
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise ValueError(f"edge {e.a} {e.b} out of range for {n} points")

    def sorted_edges(self) -> tuple[Segment, ...]:
        return tuple(sorted(self.edges))


def is_geometric_thrackle(G: GeometricGraph) -> bool:
    """True iff every pair of distinct edges shares an endpoint or crosses properly.

    The endpoints are scaled to integers once, and every pair that shares
    no endpoint goes through the integer crossing test of
    :func:`crossfam.geometry.segments_cross`.
    """
    edges = G.sorted_edges()
    ends = _integer_points(G.pointset, [i for e in edges for i in (e.a, e.b)])
    for (e, p, q), (f, r, t) in combinations(zip(edges, ends[::2], ends[1::2]), 2):
        if not e.shares_endpoint(f) and not _crosses(p, q, r, t):
            return False
    return True


def _cycle_lengths(G: GeometricGraph) -> Optional[list[int]]:
    """Lengths of the cycles closed by the back edges of one depth-first pass.

    Every non-tree edge of an undirected depth-first search joins a vertex
    to one of its ancestors and closes one cycle with the tree path between
    them. If no two of these cycles share an edge, they are the graph's only
    cycles: any cycle is a sum of them, and a sum of edge-disjoint cycles is
    a simple cycle only when it is one of them. If two share a tree edge,
    the tree paths meet in a path P from x to y, and the rest of each cycle
    is a second and a third x-y path, disjoint from P and from each other
    inside; two of the three paths have lengths of equal parity and close an
    even cycle. The pass returns ``None`` as soon as it finds such a pair.
    """
    n = len(G.pointset)
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for e in G.edges:
        neighbours[e.a].append(e.b)
        neighbours[e.b].append(e.a)
    depth = [-1] * n
    parent = [-1] * n
    on_cycle = [False] * n  # on_cycle[v]: the tree edge from v to its parent lies on a cycle
    lengths = []
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [(root, iter(neighbours[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if depth[w] < 0:
                    depth[w], parent[w] = depth[v] + 1, v
                    stack.append((w, iter(neighbours[w])))
                    break
                if depth[w] < depth[v] - 1:  # back edge to an ancestor above the parent
                    lengths.append(depth[v] - depth[w] + 1)
                    u = v
                    while u != w:
                        if on_cycle[u]:
                            return None
                        on_cycle[u] = True
                        u = parent[u]
            else:
                stack.pop()
    return lengths


def has_even_cycle(G: GeometricGraph) -> bool:
    """True iff the abstract graph contains a simple cycle of even length."""
    lengths = _cycle_lengths(G)
    return lengths is None or any(length % 2 == 0 for length in lengths)


def is_forest(G: GeometricGraph) -> bool:
    """True iff the abstract graph is acyclic."""
    return _cycle_lengths(G) == []


def star_polygon(c: int) -> GeometricGraph:
    """The cycle on a convex c-gon drawn with skip floor(c/2).

    For odd c this is a single c-cycle in which every two edges share an
    endpoint or cross, i.e. a geometric thrackle.
    """
    if c < 3:
        raise ValueError("need at least 3 vertices for a cycle")
    S = convex_position_points(c)
    skip = c // 2
    edges = frozenset(Segment(i, (i + skip) % c) for i in range(c))
    return GeometricGraph(S, edges)
