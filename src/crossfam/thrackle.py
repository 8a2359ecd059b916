"""Geometric thrackles and cycle-structure checks on geometric graphs.

A geometric thrackle is a straight-line drawing in which every two edges
either share an endpoint or cross properly. Cycle detection here is purely
combinatorial: a graph contains an even cycle iff some biconnected block
either is a single even cycle or has more edges than vertices (any such
block holds two vertices joined by three disjoint paths, two of which have
lengths of equal parity and so close an even cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .geometry import PointSet, Segment, convex_position_points, segments_cross


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
    """True iff every pair of distinct edges shares an endpoint or crosses properly."""
    edges = G.sorted_edges()
    for e, f in combinations(edges, 2):
        if e.shares_endpoint(f):
            continue
        if not segments_cross(G.pointset, e, f):
            return False
    return True


def _edge_blocks(G: GeometricGraph) -> list[list[tuple[int, int]]]:
    """Edge sets of the biconnected blocks, by an iterative Hopcroft-Tarjan DFS."""
    n = len(G.pointset)
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for e in G.sorted_edges():
        neighbours[e.a].append(e.b)
        neighbours[e.b].append(e.a)
    disc = [-1] * n
    low = [0] * n
    clock = 0
    blocks = []
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(neighbours[root]))]
        edges: list[tuple[int, int]] = []
        while stack:
            v, parent, rest = stack[-1]
            for w in rest:
                if disc[w] < 0:
                    edges.append((v, w))
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(neighbours[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    edges.append((v, w))  # back edge
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:  # u separates the block below tree edge uv
                        block = []
                        while not block or block[-1] != (u, v):
                            block.append(edges.pop())
                        blocks.append(block)
    return blocks


def has_even_cycle(G: GeometricGraph) -> bool:
    """True iff the abstract graph contains a simple cycle of even length."""
    for block in _edge_blocks(G):
        if len(block) < 2:
            continue  # bridge
        vertices = {v for e in block for v in e}
        if len(block) > len(vertices):
            return True  # theta subgraph forces an even cycle
        if len(block) % 2 == 0:
            return True  # the block is a single even cycle
    return False


def is_forest(G: GeometricGraph) -> bool:
    """True iff the abstract graph is acyclic, i.e. every block is a bridge."""
    return all(len(block) == 1 for block in _edge_blocks(G))


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
