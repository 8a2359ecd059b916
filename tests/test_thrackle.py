import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.geometry import PointSet, Segment, convex_position_points, segments_cross
from crossfam.thrackle import (
    GeometricGraph,
    has_even_cycle,
    is_forest,
    is_geometric_thrackle,
    star_polygon,
)
from crossfam.store import load_bundled
from conftest import exact_pointsets, exact_segments, random_pointset, reference_cross


def cycle_graph(S, order):
    edges = {Segment(order[i], order[(i + 1) % len(order)]) for i in range(len(order))}
    return GeometricGraph(S, frozenset(edges))


class TestIsGeometricThrackle:
    def test_pentagram(self):
        assert is_geometric_thrackle(star_polygon(5))

    def test_convex_quad_boundary_is_not(self):
        S = convex_position_points(4)
        assert not is_geometric_thrackle(cycle_graph(S, [0, 1, 3, 2]))

    def test_single_edge_vacuous(self):
        S = convex_position_points(2)
        assert is_geometric_thrackle(GeometricGraph(S, frozenset({Segment(0, 1)})))

    @pytest.mark.parametrize("c", [3, 5, 7, 9])
    def test_odd_star_polygons_are_thrackles(self, c):
        assert is_geometric_thrackle(star_polygon(c))

    def test_edge_out_of_range(self):
        S = load_bundled("n9_cf2")[0]
        with pytest.raises(ValueError, match="edge 0 9 out of range for 9 points"):
            GeometricGraph(S, frozenset({Segment(0, 9)}))

    def test_star_polygon_needs_three_vertices(self):
        with pytest.raises(ValueError, match="need at least 3 vertices for a cycle"):
            star_polygon(2)

    def test_skip2_hexagon_drawing_is_not(self):
        # two nested triangles on a convex hexagon: {0,2} and {3,5} are disjoint
        S = convex_position_points(6)
        edges = {Segment(i, (i + 2) % 6) for i in range(6)}
        assert not is_geometric_thrackle(GeometricGraph(S, frozenset(edges)))

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_the_orientation_reference(self, data):
        S = data.draw(exact_pointsets())
        G = GeometricGraph(S, data.draw(st.frozensets(exact_segments(len(S)), max_size=6)))
        assert is_geometric_thrackle(G) == all(
            e.shares_endpoint(f) or reference_cross(S, e, f)
            for e, f in combinations(G.sorted_edges(), 2))


class TestHasEvenCycle:
    def test_c4(self):
        S = convex_position_points(4)
        assert has_even_cycle(cycle_graph(S, [0, 1, 2, 3]))

    def test_c5(self):
        S = convex_position_points(5)
        assert not has_even_cycle(cycle_graph(S, [0, 1, 2, 3, 4]))

    def test_tree(self):
        S = convex_position_points(5)
        star = GeometricGraph(S, frozenset({Segment(0, i) for i in range(1, 5)}))
        assert not has_even_cycle(star)

    def test_two_triangles_sharing_a_vertex(self):
        S = convex_position_points(5)
        edges = {Segment(0, 1), Segment(1, 2), Segment(0, 2),
                 Segment(2, 3), Segment(3, 4), Segment(2, 4)}
        assert not has_even_cycle(GeometricGraph(S, frozenset(edges)))

    def test_theta_graph(self):
        # triangle plus a chord path: two cycles of lengths 3 and 4 share edges
        S = convex_position_points(4)
        edges = {Segment(0, 1), Segment(1, 2), Segment(0, 2),
                 Segment(1, 3), Segment(3, 2)}
        assert has_even_cycle(GeometricGraph(S, frozenset(edges)))

    def test_matches_brute_force_on_random_graphs(self, rng):
        from itertools import combinations

        for _ in range(60):
            n = rng.randint(3, 7)
            S = convex_position_points(n)
            all_edges = [Segment(a, b) for a, b in combinations(range(n), 2)]
            edges = frozenset(e for e in all_edges if rng.random() < 0.4)
            G = GeometricGraph(S, edges)
            assert has_even_cycle(G) == _even_cycle_brute(n, edges)


def _even_cycle_brute(n, edges):
    """Check all simple cycles by brute-force path enumeration."""
    adjacency = {v: set() for v in range(n)}
    for e in edges:
        adjacency[e.a].add(e.b)
        adjacency[e.b].add(e.a)

    def walk(start, current, visited):
        for nxt in adjacency[current]:
            if nxt == start and len(visited) >= 3:
                if len(visited) % 2 == 0:
                    return True
            elif nxt not in visited and nxt > start:
                if walk(start, nxt, visited | {nxt}):
                    return True
        return False

    return any(walk(v, v, {v}) for v in range(n))


class TestIsForest:
    def test_star(self):
        S = convex_position_points(5)
        star = GeometricGraph(S, frozenset({Segment(0, i) for i in range(1, 5)}))
        assert is_forest(star)

    def test_triangle(self):
        S = convex_position_points(3)
        assert not is_forest(cycle_graph(S, [0, 1, 2]))

    def test_empty_edges(self):
        assert is_forest(GeometricGraph(convex_position_points(4), frozenset()))

    def test_empty_pointset(self):
        assert is_forest(GeometricGraph(PointSet.from_coords([]), frozenset()))

    def test_matches_networkx_on_random_graphs(self, rng):
        from itertools import combinations

        nx = pytest.importorskip("networkx")
        for _ in range(200):
            n = rng.randint(1, 9)
            density = rng.choice((0.15, 0.3, 0.5))
            S = convex_position_points(n)
            edges = frozenset(Segment(a, b) for a, b in combinations(range(n), 2)
                              if rng.random() < density)
            H = nx.Graph()
            H.add_nodes_from(range(n))
            H.add_edges_from((e.a, e.b) for e in edges)
            assert is_forest(GeometricGraph(S, edges)) == nx.is_forest(H)


def grow_random_thrackle(S, rng):
    """Add segments in random order while the thrackle property survives."""
    from itertools import combinations

    n = len(S)
    candidates = [Segment(a, b) for a, b in combinations(range(n), 2)]
    rng.shuffle(candidates)
    edges = []
    for cand in candidates:
        if all(cand.shares_endpoint(e) or segments_cross(S, cand, e) for e in edges):
            edges.append(cand)
    return GeometricGraph(S, frozenset(edges))


class TestThrackleCycleLaw:
    def test_sampled_thrackles_have_no_even_cycle(self, rng):
        for _ in range(120):
            S = random_pointset(rng, rng.randint(4, 7))
            G = grow_random_thrackle(S, rng)
            assert is_geometric_thrackle(G)
            assert not has_even_cycle(G)

    def test_bipartite_thrackles_are_forests(self, rng):
        nx = pytest.importorskip("networkx")

        for _ in range(80):
            S = random_pointset(rng, rng.randint(4, 7))
            G = grow_random_thrackle(S, rng)
            H = nx.Graph()
            H.add_nodes_from(range(len(S)))
            H.add_edges_from((e.a, e.b) for e in G.edges)
            if nx.is_bipartite(H):
                assert is_forest(G)


def test_cycle_checks_agree_with_oracles_on_every_small_graph():
    """Every labelled graph on at most 6 vertices: 33,868 graphs."""
    from itertools import combinations

    nx = pytest.importorskip("networkx")
    graphs = 0
    for n in range(7):
        S = convex_position_points(n)
        pairs = [Segment(a, b) for a, b in combinations(range(n), 2)]
        for bits in range(1 << len(pairs)):
            edges = frozenset(e for i, e in enumerate(pairs) if bits >> i & 1)
            G = GeometricGraph(S, edges)
            assert has_even_cycle(G) == _even_cycle_brute(n, edges), sorted(edges)
            if n:  # networkx raises on the null graph
                H = nx.Graph()
                H.add_nodes_from(range(n))
                H.add_edges_from((e.a, e.b) for e in edges)
                assert is_forest(G) == nx.is_forest(H), sorted(edges)
            else:
                assert is_forest(G)
            graphs += 1
    assert graphs == 33_868
