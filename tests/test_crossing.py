import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam import crossing
from crossfam.crossing import (
    CliqueSearch,
    SegmentList,
    _count_cliques,
    _count_cliques_meeting,
    _transversal_top,
    brute_force_cf,
    build_crossing_graph,
    count_k_families,
    has_k_family,
    is_crossing_family,
    max_crossing_family,
)
from crossfam.errors import InvalidSegmentError, NotGeneralPositionError, SizeLimitError
from crossfam.geometry import (
    Orientation,
    Point,
    PointSet,
    Segment,
    all_segments,
    convex_position_points,
    normalize_coordinates,
    orientation,
    segments_cross,
)
from crossfam.replication import replicate_certified
from crossfam.store import load_bundled
from conftest import (
    ReferenceSearch,
    SiblingBlindSearch,
    exact_pointsets,
    exact_segments,
    outcome,
    random_pointset,
    reference_cross,
    reference_is_crossing_family,
    text_layout,
    top_vertex_count,
)


class TestBuildCrossingGraph:
    def test_square_single_adjacency(self):
        S = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
        g = build_crossing_graph(S)
        assert len(g) == 6
        assert g.edge_count == 1
        i, j = g.segments.index(Segment(0, 2)), g.segments.index(Segment(1, 3))
        assert g.adjacency[i] >> j & 1

    def test_triangle_no_adjacency(self):
        g = build_crossing_graph(convex_position_points(3))
        assert len(g) == 3
        assert g.edge_count == 0

    def test_convex_5gon_adjacency_count(self):
        # each 4-subset of a convex polygon contributes exactly one crossing pair
        g = build_crossing_graph(convex_position_points(5))
        assert len(g) == 10
        assert g.edge_count == 5

    @pytest.mark.parametrize("n", [4, 6, 7, 8])
    def test_convex_ngon_adjacency_is_n_choose_4(self, n):
        g = build_crossing_graph(convex_position_points(n))
        assert g.edge_count == comb(n, 4)

    def test_adjacency_matches_predicate(self, rng):
        S = random_pointset(rng, 7)
        g = build_crossing_graph(S)
        for i, j in combinations(range(len(g)), 2):
            assert bool(g.adjacency[i] >> j & 1) == segments_cross(S, g.segments[i], g.segments[j])

    def test_rejects_collinear(self):
        with pytest.raises(NotGeneralPositionError):
            build_crossing_graph(PointSet.from_coords([(0, 0), (1, 1), (2, 2), (1, 0)]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            build_crossing_graph(PointSet.from_coords([(0, 0)]))


def test_one_kernel_pass_per_set(kernel_passes, row_builds):
    S = random_pointset(random.Random(20), 20)
    graph = build_crossing_graph(S)
    k = CliqueSearch(graph.adjacency).run()[0]
    assert has_k_family(S, k) is not None and has_k_family(S, k + 1) is None
    assert count_k_families(S, 3) > 0
    assert len(kernel_passes) == 1
    assert row_builds == [20]


@pytest.mark.parametrize("n", range(46))
def test_segment_list_reads_as_all_segments(n):
    segments, made = SegmentList(n), all_segments(n)
    size = len(made)
    assert len(segments) == size and tuple(segments) == made and list(segments) == list(made)
    for i in range(-size, size):
        s = segments[i]
        assert type(s) is Segment and s == made[i] and vars(s) == vars(made[i])
    for bad in (size, size + 1, -size - 1):
        with pytest.raises(IndexError):
            segments[bad]
    for part in (slice(None), slice(None, None, -1), slice(1, -1), slice(-5, None),
                 slice(3, 40, 7), slice(size, None), slice(-size - 9, 4), slice(None, None, 2)):
        assert segments[part] == made[part]
    for s in made[::max(1, size // 12)] + (Segment(0, n + 1), Segment(n - 1, n), (0, 1)):
        assert (s in segments) == (s in made)
        assert segments.count(s) == made.count(s)
        if s in made:
            i = made.index(s)
            assert segments.index(s) == i and segments.index(s, i, i + 1) == i
            with pytest.raises(ValueError):
                segments.index(s, i + 1)
        else:
            with pytest.raises(ValueError):
                segments.index(s)
    assert segments == made and made == segments
    assert not segments != made and not made != segments
    assert segments == SegmentList(n) and segments != SegmentList(n + 2)
    assert segments != all_segments(n + 2) and all_segments(n + 2) != segments
    assert segments != list(made)


def test_every_segment_comes_from_its_constructor(monkeypatch):
    # all_segments and a graph's segment list make each Segment through
    # Segment(...), so its check and ordering run once per segment handed out
    calls = []
    post_init = Segment.__post_init__
    monkeypatch.setattr(Segment, "__post_init__", lambda self: calls.append(1) or post_init(self))
    for n in range(13):
        calls.clear()
        assert len(all_segments(n)) == len(calls) == comb(n, 2)
    segments = build_crossing_graph(random_pointset(random.Random(5), 9)).segments
    calls.clear()
    read = [segments[i] for i in range(len(segments))]
    assert len(calls) == len(read) == 36
    calls.clear()
    assert segments[-3] == read[-3] and len(calls) == 1
    calls.clear()
    assert segments[4:30:5] == tuple(read[4:30:5]) and len(calls) == 6


@pytest.mark.parametrize("name", ["n4_cf1", "n9_cf2", "n14_cf3", "n20_cf4"])
def test_witnesses_map_through_the_segment_list(name):
    # the witness indices, mapped through the tuple, give the segments the
    # queries return
    S, cf = load_bundled(name)
    segments = all_segments(len(S))
    size, vertices = CliqueSearch(build_crossing_graph(S).adjacency).run()
    assert max_crossing_family(S) == (cf, tuple(segments[v] for v in vertices))
    for k in (cf, cf + 1):
        size, vertices = CliqueSearch(build_crossing_graph(S).adjacency).run(target=k)
        expected = tuple(segments[v] for v in vertices) if size == k else None
        assert has_k_family(S, k) == expected
    assert has_k_family(S, cf + 1) is None


def test_decide_and_count_build_no_segments(monkeypatch):
    # a search reads only its witness's segments, each made when read; no
    # query builds the list of all C(n, 2)
    built, read = [], []
    monkeypatch.setattr(crossing, "all_segments", lambda n: built.append(n) or all_segments(n))
    item = SegmentList.__getitem__
    monkeypatch.setattr(SegmentList, "__getitem__", lambda self, i: read.append(i) or item(self, i))
    S = random_pointset(random.Random(21), 12)
    k, family = max_crossing_family(S)
    assert len(read) == k and is_crossing_family(S, family)
    assert has_k_family(S, k + 1) is None and count_k_families(S, 2) > 0
    assert len(read) == k
    assert is_crossing_family(S, has_k_family(S, k)) and len(read) == 2 * k
    assert built == []


def test_checks_and_oracle_read_no_kernel_table(monkeypatch):
    # the pairwise checks stay independent of the kernel they check
    from crossfam import chirotope, geometry

    def refuse(*args):
        raise AssertionError("the kernel was read")

    for module in (chirotope, geometry):
        for name in ("side_masks", "segment_sides", "crossing_rows"):
            monkeypatch.setattr(module, name, refuse)
    coords = [(p.x, p.y) for p in load_bundled("n9_cf2")[0]]
    S = PointSet.from_coords(coords)
    family = (Segment(0, 8), Segment(3, 4))  # the bundled witness
    assert segments_cross(S, *family) and is_crossing_family(S, family)
    assert brute_force_cf(S) == 2
    assert "side_masks" not in vars(S) and "crossing_rows" not in vars(S)


def test_reference_orientation_shares_no_code_with_the_crossing_checks(monkeypatch):
    # conftest.reference_cross checks _crosses through the public orientation,
    # which holds only while orientation runs none of _scaled, _crosses or the kernel
    from crossfam import chirotope, geometry

    def refuse(*args):
        raise AssertionError("orientation read the code it is the reference for")

    for module, name in ((geometry, "_scaled"), (geometry, "_crosses"),
                         (geometry, "side_masks"), (chirotope, "side_masks")):
        monkeypatch.setattr(module, name, refuse)
    third = Fraction(1, 3)
    cases = [
        ((0, 0), (1, 0), (0, 1), Orientation.COUNTERCLOCKWISE),
        ((0, 0), (1, 0), (2, 0), Orientation.COLLINEAR),
        ((0, 0), (0, 1), (1, 0), Orientation.CLOCKWISE),
        ((third, 0), (1, 0), (0, Fraction(1, 7)), Orientation.COUNTERCLOCKWISE),
        ((third, third), (Fraction(2, 3), Fraction(2, 3)), (Fraction(5, 3), Fraction(5, 3)),
         Orientation.COLLINEAR),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)),
         Orientation.CLOCKWISE),
        ((0, third), (1, Fraction(4, 3)), (2, 2), Orientation.CLOCKWISE),
    ]
    for p, q, r, expected in cases:
        assert orientation(Point(*p), Point(*q), Point(*r)) == expected


class TestMaxCrossingFamily:
    def test_convex_10gon(self):
        k, family = max_crossing_family(convex_position_points(10))
        assert k == 5
        assert is_crossing_family(convex_position_points(10), family)

    def test_single_segment(self):
        k, family = max_crossing_family(PointSet.from_coords([(0, 0), (3, 1)]))
        assert k == 1
        assert family == (Segment(0, 1),)

    def test_any_5_points_have_crossing_pair(self, rng):
        for _ in range(25):
            S = random_pointset(rng, 5)
            k, _ = max_crossing_family(S)
            assert k >= 2

    def test_witnesses_are_valid_families(self, rng):
        for _ in range(20):
            n = rng.randint(4, 9)
            S = random_pointset(rng, n)
            k, family = max_crossing_family(S)
            assert len(family) == k
            assert is_crossing_family(S, family)

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(40):
            n = rng.randint(4, 9)
            S = random_pointset(rng, n)
            assert max_crossing_family(S)[0] == brute_force_cf(S)

    def test_monotone_under_point_insertion(self, rng):
        for _ in range(15):
            n = rng.randint(4, 8)
            S = random_pointset(rng, n)
            base, _ = max_crossing_family(S)
            for _ in range(50):
                p = (rng.randint(-50, 50), rng.randint(-50, 50))
                T = PointSet.from_coords([(q.x, q.y) for q in S] + [p])
                if len({(q.x, q.y) for q in T}) == n + 1 and _gp(T):
                    assert max_crossing_family(T)[0] >= base
                    break

    def test_deterministic_witness(self, rng):
        S = random_pointset(rng, 9)
        assert max_crossing_family(S) == max_crossing_family(S)


class TestIsCrossingFamily:
    @pytest.mark.parametrize("family, bad", [
        ([Segment(0, 7)], 7),
        ([Segment(-1, 3)], -1),
        ([Segment(0, 2), Segment(1, 7)], 7),
    ])
    def test_index_out_of_range_rejected(self, family, bad):
        with pytest.raises(InvalidSegmentError) as exc:
            is_crossing_family(convex_position_points(5), family)
        assert str(exc.value) == f"point index {bad} out of range for 5 points"

    def test_small_families_in_range(self):
        S = convex_position_points(5)
        assert is_crossing_family(S, [])
        assert is_crossing_family(S, [Segment(0, 4)])

    def test_repeated_segment_is_not_a_family(self):
        assert not is_crossing_family(convex_position_points(5), [Segment(0, 2), Segment(0, 2)])

    @settings(max_examples=400)
    @given(st.data())
    def test_matches_the_orientation_reference(self, data):
        S = data.draw(exact_pointsets())
        n = len(S)
        low, high = data.draw(st.sampled_from([(0, 0), (-1, 1)]))
        family = data.draw(st.lists(exact_segments(n, low, high), min_size=2, max_size=5))
        if (low, high) == (0, 0) and data.draw(st.booleans()):
            family = data.draw(st.permutations(all_segments(n)))
            # greedily keep the segments that cross all kept ones, so that
            # true families are drawn too, then maybe repeat one
            for start in range(len(family)):  # the longest greedy run
                run = []
                for s in family[start:] + family[:start]:
                    if all(reference_cross(S, s, t) for t in run):
                        run.append(s)
                kept = max(kept, run, key=len) if start else run
            family = kept + kept[:data.draw(st.integers(0, 1))]
        assert (outcome(is_crossing_family, S, family)
                == outcome(reference_is_crossing_family, S, family))


def _gp(S):
    from crossfam.geometry import is_general_position

    return is_general_position(S)


class TestHasKFamily:
    def test_convex_8gon_main_diagonals(self):
        S = convex_position_points(8)
        family = has_k_family(S, 4)
        assert family is not None and len(family) == 4
        assert is_crossing_family(S, family)

    def test_convex_8gon_no_5_family(self):
        assert has_k_family(convex_position_points(8), 5) is None

    def test_k1_returns_any_segment(self):
        family = has_k_family(PointSet.from_coords([(0, 0), (1, 5), (9, 2)]), 1)
        assert family is not None and len(family) == 1

    def test_agrees_with_max(self, rng):
        for _ in range(10):
            n = rng.randint(4, 8)
            S = random_pointset(rng, n)
            best, _ = max_crossing_family(S)
            for k in range(1, n // 2 + 1):
                assert (has_k_family(S, k) is not None) == (best >= k)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            has_k_family(convex_position_points(4), 0)


class TestCountKFamilies:
    def test_convex_5gon_pairs(self):
        assert count_k_families(convex_position_points(5), 2) == 5

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="family size must be non-negative"):
            count_k_families(convex_position_points(5), -1)

    def test_triangle_no_pairs(self):
        assert count_k_families(convex_position_points(3), 2) == 0

    def test_square_one_pair(self):
        S = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert count_k_families(S, 2) == 1

    def test_counts_match_exhaustive_enumeration(self, rng):
        S = random_pointset(rng, 7)
        g = build_crossing_graph(S)
        for k in (2, 3):
            expected = sum(
                1
                for subset in combinations(range(len(g)), k)
                if all(g.adjacency[i] >> j & 1 for i, j in combinations(subset, 2))
            )
            assert count_k_families(S, k) == expected

    @pytest.mark.parametrize("name, m, counts", [
        ("n9_cf2", 1, [42, 0]),
        ("n14_cf3", 1, [376, 210, 0]),
        ("n20_cf4", 1, [2027, 4533, 2061, 0]),
        ("n9_cf2", 2, [1380, 1824, 670, 0]),
        ("n14_cf3", 2, [9019, 45264, 81496, 55384, 12946, 0]),
    ])
    def test_pinned_counts_on_bundled_sets_and_replicas(self, name, m, counts):
        # k = 2 up to cf + 1; the m = 2 replica of n20_cf4 is left out (about
        # ten seconds), its counts for k = 2..9 are 41742, 569088, 3152355,
        # 8270412, 10846569, 6626628, 1498969 and 0
        S = load_bundled(name)[0] if m == 1 else _replica(name, m)
        assert [count_k_families(S, k) for k in range(2, len(counts) + 2)] == counts

    def test_above_maximum_is_zero(self, rng):
        for _ in range(10):
            S = random_pointset(rng, rng.randint(4, 8))
            best, _ = max_crossing_family(S)
            assert count_k_families(S, best + 1) == 0


class TestBruteForce:
    def test_square(self):
        S = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert brute_force_cf(S) == 2

    def test_convex_7gon(self):
        assert brute_force_cf(convex_position_points(7)) == 3

    def test_convex_9gon(self):
        assert brute_force_cf(convex_position_points(9)) == 4

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            brute_force_cf(convex_position_points(11))


def _reference_relabel(adj):
    """Two-step reference: min-degree removal order (ties: smallest index),
    whose p-th vertex gets position p, then every row relabeled bit by bit."""
    degs = [row.bit_count() for row in adj]
    alive = set(range(len(adj)))
    order = []
    while alive:
        v = min(alive, key=lambda u: (degs[u], u))
        order.append(v)
        alive.remove(v)
        for u in alive:
            if adj[v] >> u & 1:
                degs[u] -= 1
    to_original = order
    rank = {old: new for new, old in enumerate(to_original)}
    relabeled = [0] * len(adj)
    for old, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1:
                relabeled[rank[old]] |= 1 << rank[u]
    return to_original, relabeled


@st.composite
def random_graphs(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_clique_search_relabels_by_degeneracy_order(adj):
    search = CliqueSearch(adj)
    assert (list(search._to_original), list(search._adj)) == _reference_relabel(adj)


def _graph(n, edges):
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    return _graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _power_of_two_graph():
    """Cliques of 2^j - 1, 2^j and 2^j + 1 members, then a star with 64
    leaves, so degrees start on both sides of every 2^j up to 64 and the
    centre's degree crosses each of them on the way down."""
    edges, start = [], 0
    for size in [s for j in range(7) for s in (2**j - 1, 2**j, 2**j + 1)]:
        edges += combinations(range(start, start + size), 2)
        start += size
    edges += [(start, leaf) for leaf in range(start + 1, start + 65)]
    return _graph(start + 65, edges)


@pytest.mark.parametrize("adj", [
    [],
    [0],
    [0] * 5,
    [0] * 70,
    _graph(9, combinations(range(9), 2)),
    _graph(70, combinations(range(70), 2)),
    _power_of_two_graph(),
    _random_graph(65, 0.5, 1),
    _random_graph(130, 0.2, 2),
    _random_graph(1030, 0.01, 3),
], ids=["empty", "one-vertex", "isolated-5", "isolated-70", "complete-9",
        "complete-70", "powers-of-two", "random-65", "random-130", "random-1030"])
def test_clique_search_order_on_fixed_graphs(adj):
    search = CliqueSearch(adj)
    assert (list(search._to_original), list(search._adj)) == _reference_relabel(adj)


def _brute_force_cliques(adj, k, cand, hit=None):
    inside = [v for v in range(len(adj)) if cand >> v & 1]
    return sum(
        1
        for clique in combinations(inside, k)
        if all(adj[u] >> v & 1 for u, v in combinations(clique, 2))
        and (hit is None or any(hit >> v & 1 for v in clique))
    )


@settings(max_examples=200, deadline=None)
@given(random_graphs(max_n=14), st.integers(0, 5), st.data())
def test_clique_counts_inside_a_mask_match_brute_force(adj, k, data):
    every = (1 << len(adj)) - 1
    cand = data.draw(st.integers(0, every))
    hit = data.draw(st.integers(0, every))
    assert _count_cliques(adj, k) == _brute_force_cliques(adj, k, every)
    assert _count_cliques(adj, k, cand) == _brute_force_cliques(adj, k, cand)
    assert _count_cliques_meeting(adj, k, cand, hit) == _brute_force_cliques(adj, k, cand, hit)


def _elementary_symmetric(sizes, k):
    """e_k of ``sizes``: the number of k-cliques of the complete multipartite
    graph with those part sizes."""
    e = [1] + [0] * k
    for size in sizes:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * size
    return e[k]


def _complete_multipartite(sizes, seed):
    """(rows, part masks) of the complete multipartite graph with parts of
    ``sizes``, the vertices dealt to the parts in a shuffled order."""
    n = sum(sizes)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    parts, start = [], 0
    for size in sizes:
        parts.append(sum(1 << v for v in order[start:start + size]))
        start += size
    every = (1 << n) - 1
    return [every ^ next(p for p in parts if p >> v & 1) for v in range(n)], parts


# Wider than one 30-bit CPython digit, so the top vertex and its single bit
# cross digit boundaries; one large part keeps the clique counts small.
@settings(max_examples=15, deadline=None)
@given(st.data())
@pytest.mark.parametrize("sizes", [
    (10, 8, 6, 4, 2, 1),
    (30, 12, 8, 5, 3, 2, 1),
    (33, 16, 8, 4, 2, 1, 1),
    (110, 8, 5, 3, 2, 1, 1),
    (280, 8, 4, 3, 2, 1, 1, 1),
], ids=["31", "61", "65", "130", "300"])
def test_clique_counts_on_multipartite_graphs_match_elementary_symmetric(sizes, data):
    adj, parts = _complete_multipartite(sizes, len(sizes))
    every = (1 << len(adj)) - 1
    cand = data.draw(st.integers(0, every))
    hit = data.draw(st.integers(0, every))
    inside = [(p & cand).bit_count() for p in parts]
    outside_hit = [(p & cand & ~hit).bit_count() for p in parts]
    for k in range(7):
        assert _count_cliques(adj, k) == _elementary_symmetric(sizes, k)
        assert _count_cliques(adj, k, cand) == _elementary_symmetric(inside, k)
        assert _count_cliques_meeting(adj, k, cand, hit) == (
            _elementary_symmetric(inside, k) - _elementary_symmetric(outside_hit, k))


def _assert_counts_match_the_top_vertex_counter(adj, rng):
    """Counts inside the full mask up to k = 4, and inside random masks up to
    k = 6, equal the top-vertex counter's, as do the counts meeting a
    random ``hit`` mask: those in ``cand`` less those in ``cand & ~hit``."""
    for k in range(5):
        assert _count_cliques(adj, k) == top_vertex_count(adj, k)
    n = len(adj)
    for density in (1, 2, 3):  # cand is the AND of this many random masks
        cand = (1 << n) - 1
        for _ in range(density):
            cand &= rng.getrandbits(n)
        hit = rng.getrandbits(n)
        for k in range(7):
            expected = top_vertex_count(adj, k, cand)
            assert _count_cliques(adj, k, cand) == expected
            assert _count_cliques_meeting(adj, k, cand, hit) == (
                expected - top_vertex_count(adj, k, cand & ~hit))


@pytest.mark.parametrize("n", range(4, 31))
def test_clique_counts_on_crossing_graphs_match_the_top_vertex_counter(n):
    rng = random.Random(n)
    adj = random_pointset(rng, n).crossing_rows
    assert len(adj) == comb(n, 2)
    _assert_counts_match_the_top_vertex_counter(adj, rng)


@pytest.mark.parametrize("name, m", [("n9_cf2", 2), ("n9_cf2", 3), ("n14_cf3", 2), ("n14_cf3", 3)])
def test_clique_counts_on_replicas_match_the_top_vertex_counter(name, m):
    _assert_counts_match_the_top_vertex_counter(_replica(name, m).crossing_rows, random.Random(m))


def _traced_run(cls, adj, target=None):
    """(result, recorded cliques, ``_expand`` calls (clique, cand)) of one search, in order.

    Cliques and candidate masks are written in labels: position p, the p-th
    vertex the degeneracy peel removes, is label n - 1 - p, and a mask has
    its n bits reversed. The pinned digests were recorded in labels, when
    label 0 was the vertex peeled last.
    """
    search = cls(adj)
    n = search._n
    records, calls = [], []
    record, expand = search._record, search._expand

    def labels(clique):
        return tuple(n - 1 - p for p in clique)

    def traced_record(clique):
        records.append(labels(clique))
        record(clique)

    def traced_expand(clique, cand):
        calls.append((labels(clique), int(format(cand, f"0{n}b")[::-1], 2)))
        expand(clique, cand)

    search._record, search._expand = traced_record, traced_expand
    return search.run(target), records, calls


def _assert_same_search_as_reference(adj):
    best, records, _ = _traced_run(CliqueSearch, adj)
    assert (best, records) == _traced_run(ReferenceSearch, adj)[:2]
    for k in range(1, best[0] + 2):
        assert _traced_run(CliqueSearch, adj, k)[:2] == _traced_run(ReferenceSearch, adj, k)[:2]


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_colour_class_cut_keeps_every_record_on_random_graphs(adj):
    _assert_same_search_as_reference(adj)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 13), st.integers(0, 2**32))
def test_colour_class_cut_keeps_every_record_on_crossing_graphs(n, seed):
    _assert_same_search_as_reference(
        build_crossing_graph(random_pointset(random.Random(seed), n)).adjacency)


def test_colour_class_cut_searches_fewer_nodes():
    S, cf = load_bundled("n14_cf3")
    adj = build_crossing_graph(replicate_certified(normalize_coordinates(S), 3)[0]).adjacency
    best, records, calls = _traced_run(CliqueSearch, adj)
    reference_best, reference_records, reference_calls = _traced_run(ReferenceSearch, adj)
    assert best[0] == 3 * cf
    assert (best, records) == (reference_best, reference_records)
    assert len(calls) < len(reference_calls)


def _reference_transversal_top(adj, classes):
    """The colour-class cut on vertex sets: every round drops each vertex
    with no neighbour in some other class, until a round drops none; the
    last class, or 0 once a class empties."""
    sets = [{v for v in range(len(adj)) if cls >> v & 1} for cls in classes]
    while True:
        dropped = [
            (i, v) for i, members in enumerate(sets) for v in members
            if not all(any(adj[v] >> u & 1 for u in other)
                       for j, other in enumerate(sets) if j != i)
        ]
        if not dropped:
            return sum(1 << v for v in sets[-1])
        for i, v in dropped:
            sets[i].discard(v)
        if not all(sets):
            return 0


@settings(max_examples=300, deadline=None)
@given(random_graphs(), st.data())
def test_transversal_top_keeps_the_survivors_of_a_set_reference(adj, data):
    # disjoint independent classes, as a tight node's colour classes are
    labels = data.draw(st.lists(st.integers(-1, 4), min_size=len(adj), max_size=len(adj)))
    classes = []
    for colour in range(5):
        cls = 0
        for v, label in enumerate(labels):
            if label == colour and not adj[v] & cls:
                cls |= 1 << v
        if cls:
            classes.append(cls)
    if classes:
        given_classes = list(classes)
        assert _transversal_top(adj, classes) == _reference_transversal_top(adj, classes)
        assert classes == given_classes


@pytest.mark.parametrize("points", [
    lambda: _replica("n9_cf2", 2),
    lambda: random_pointset(random.Random(24), 16),
], ids=["n9_cf2-m2", "random-16"])
def test_transversal_top_keeps_the_survivors_at_every_tight_node(monkeypatch, points):
    adj = build_crossing_graph(points()).adjacency
    calls = []

    def checked(rows, classes):
        survivors = _transversal_top(rows, classes)
        assert survivors == _reference_transversal_top(rows, classes)
        calls.append(survivors)
        return survivors

    monkeypatch.setattr(crossing, "_transversal_top", checked)
    cf = CliqueSearch(adj).run()[0]
    for target in range(1, cf + 2):
        CliqueSearch(adj).run(target)
    assert calls and 0 in calls and any(calls)


class EmptyStart(CliqueSearch):
    """The clique search started from an empty incumbent."""

    def _greedy_clique(self):
        return []


def _reference_greedy_clique(adj):
    """Repeatedly take the candidate with the most candidate neighbours,
    highest position first among equals, until no candidate is left."""
    cand, clique = set(range(len(adj))), []
    while cand:
        v = min(cand, key=lambda u: (-sum(adj[u] >> w & 1 for w in cand), -u))
        clique.append(v)
        cand = {w for w in cand if adj[v] >> w & 1}
    return clique


def _is_clique(adj, vertices):
    return all(adj[u] >> v & 1 for u, v in combinations(vertices, 2))


def _assert_incumbent_comes_first(adj):
    """Check the greedy incumbent of ``run()`` on ``adj``; returns its result.

    The dive matches the set-based reference, its first g - 1 vertices are
    recorded before the first ``_expand`` (nothing is when g < 2, which holds
    iff there is no edge), and the answer and witness are an empty start's.
    """
    search = CliqueSearch(adj)
    events = []
    record, expand = search._record, search._expand
    search._record = lambda clique: events.append(("record", tuple(clique))) or record(clique)
    search._expand = lambda clique, cand: events.append(("expand",)) or expand(clique, cand)
    result = search.run()
    assert result == EmptyStart(adj).run()
    dive = search._greedy_clique()
    assert dive == _reference_greedy_clique(search._adj)
    assert (len(dive) > 1) == any(adj)
    if len(dive) > 1:
        assert events[:2] == [("record", tuple(dive[:-1])), ("expand",)]
    else:
        assert events[:1] == ([("expand",)] if adj else [])
    return result


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_incumbent_is_recorded_first_and_keeps_the_answer_on_random_graphs(adj):
    size = _assert_incumbent_comes_first(adj)[0]
    assert _count_cliques(adj, size) > 0 and _count_cliques(adj, size + 1) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 10), st.integers(0, 2**32))
def test_incumbent_is_recorded_first_and_keeps_the_answer_on_crossing_graphs(n, seed):
    S = random_pointset(random.Random(seed), n)
    size = _assert_incumbent_comes_first(build_crossing_graph(S).adjacency)[0]
    assert size == brute_force_cf(S)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.integers(1, 12))
def test_interrupted_search_holds_a_clique_of_its_best_size(adj, j):
    search = CliqueSearch(adj)
    calls = 0
    expand = search._expand

    def interrupt_at_j(clique, cand):
        nonlocal calls
        calls += 1
        if calls == j:
            raise KeyboardInterrupt
        expand(clique, cand)

    search._expand = interrupt_at_j
    try:
        search.run()
    except KeyboardInterrupt:
        pass
    assert len(search.best) == search.best_size >= len(search._greedy_clique()) - 1
    assert list(search.best) == sorted(search.best) and _is_clique(adj, search.best)


# Not the m = 3 replica of n14_cf3: the search's first descent there already
# reaches cf = 9, so an incumbent of at most cf - 1 cuts nothing, and its
# pinned search tree is the same from either start.
@pytest.mark.parametrize("points", [
    lambda: _replica("n14_cf3", 2),
    lambda: random_pointset(random.Random(24), 24),
], ids=["n14_cf3-m2", "random-24"])
def test_incumbent_searches_fewer_nodes(points):
    adj = build_crossing_graph(points()).adjacency
    best, _, calls = _traced_run(CliqueSearch, adj)
    empty_best, _, empty_calls = _traced_run(EmptyStart, adj)
    assert best == empty_best
    assert len(calls) < len(empty_calls)


def _search_tree_digests(adj, targets):
    """(SHA-256 of the ``_expand`` calls, SHA-256 of the recorded cliques).

    Both digests run over ``run(t)`` for each t of ``targets`` in turn (None
    for no target), each run closed by its result, so they pin the order of
    the nodes the search visits and of the cliques it records, not only its
    answers.
    """
    calls, records = hashlib.sha256(), hashlib.sha256()
    for target in targets:
        result, recorded, expanded = _traced_run(CliqueSearch, adj, target)
        for digest, items in [(calls, expanded), (records, recorded)]:
            for item in [*items, result]:
                digest.update(repr(item).encode())
    return calls.hexdigest(), records.hexdigest()


def _replica(name, m):
    S, _ = load_bundled(name)
    return replicate_certified(normalize_coordinates(S), m)[0]


# Per graph: cf, the digests of run() (recorded on the search that starts
# from the greedy incumbent) and those of run(t) for t = 1..cf+1 (recorded
# before the incumbent, which the decision search does not use).
_PINNED_SEARCH_TREES = pytest.mark.parametrize("points, cf, search, decide", [
    (lambda: _replica("n14_cf3", 3), 9,
     ("be603cbe26a235f797e23de739d7c26c187879b12dbfa85dc167ff3fddbc4753",
      "878161aed796f936a00f67364f3e00baa45d0e1043023a1f131e64bc61449819"),
     ("b65776c4d36fc94773fca73fb20fffe0c8cbbdcfa1744db289ec4a97f73678c1",
      "e15ab686e33b484aa0986b11fdd2f14c46a39a6c753ba6e421883fca4b040375")),
    (lambda: _replica("n9_cf2", 4), 8,
     ("4c95b122d42ebb7d7db1b98b63062db2df8953eeca45ffb26603a3643cb700da",
      "404fd752140447e8223b1765c0934b92a404a5bfdab0046ded05da659481caf4"),
     ("daf95ec8f8bd49261d3eb7b7d35a9818f8dfe08be9396c6d10a3caebc3f9a61d",
      "19a8b01f14c07652cadaf51e25730e9b10a0cd13c6635ebea5b59ede9751c7fa")),
    (lambda: random_pointset(random.Random(24), 24), 11,
     ("da08e1a65a1f86cc12b13a4e9c407bfcfb211439cd93c8a1d227a38b338af236",
      "392aee73232e9a44a1ea58822793ae9b65a961165aead87bfc0a42bc1cf7365b"),
     ("7b345a5aae58c6f183273b3092aed88a647a9cd5a93596f32296cac2faefd02f",
      "c868225d42b305a8533aa3d27a2f29b9acad67ee55714084fdd795abd45302df")),
    (lambda: convex_position_points(12), 6,
     ("52937b9617c33b7bf6439e1a0b1ba44f4462ae2143605cf560ed7c6aef2bd705",
      "a806d7b563d420975057e85c455cf7dc3b99b98064907c3f4dc0dd4e0dcd642c"),
     ("6f08ad983c72f7b74e0fda0ebdbf8f4c8d2c00ee8e3950b8b23fe54564d9eaba",
      "8cefeaaf41a6aebbe8c46d3102710b4e5f52c04a25de4e18409a621eac7bf7a0")),
], ids=["n14_cf3-m3", "n9_cf2-m4", "random-24", "convex-12"])


@_PINNED_SEARCH_TREES
def test_clique_search_visits_the_pinned_search_tree(points, cf, search, decide):
    adj = build_crossing_graph(points()).adjacency
    assert CliqueSearch(adj).run()[0] == cf
    assert _search_tree_digests(adj, [None]) == search


@_PINNED_SEARCH_TREES
def test_decide_search_visits_the_pinned_search_tree(points, cf, search, decide):
    adj = build_crossing_graph(points()).adjacency
    assert _search_tree_digests(adj, range(1, cf + 2)) == decide


def _is_subsequence(short, long):
    """True iff ``short`` is ``long`` with some items left out, in order."""
    items = iter(long)
    return all(item in items for item in short)


def _assert_skips_only_calls_that_record_nothing(adj):
    """``run()`` and ``run(t)`` for t = 1..cf+1 return the sibling-blind
    search's answers, record its cliques and make a subsequence of its calls."""
    cf = CliqueSearch(adj).run()[0]
    for target in [None, *range(1, cf + 2)]:
        result, records, calls = _traced_run(CliqueSearch, adj, target)
        blind_result, blind_records, blind_calls = _traced_run(SiblingBlindSearch, adj, target)
        assert (result, records) == (blind_result, blind_records)
        assert _is_subsequence(calls, blind_calls)


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_spent_sibling_skip_keeps_every_record_on_random_graphs(adj):
    _assert_skips_only_calls_that_record_nothing(adj)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 13), st.integers(0, 2**32))
def test_spent_sibling_skip_keeps_every_record_on_crossing_graphs(n, seed):
    _assert_skips_only_calls_that_record_nothing(
        build_crossing_graph(random_pointset(random.Random(seed), n)).adjacency)


@_PINNED_SEARCH_TREES
def test_spent_sibling_skip_keeps_every_record_on_pinned_graphs(points, cf, search, decide):
    _assert_skips_only_calls_that_record_nothing(build_crossing_graph(points()).adjacency)


def test_spent_sibling_skip_searches_fewer_nodes():
    adj = build_crossing_graph(_replica("n14_cf3", 3)).adjacency
    calls = _traced_run(CliqueSearch, adj)[2]
    assert len(calls) < 6000 < len(_traced_run(SiblingBlindSearch, adj)[2])


@pytest.mark.parametrize("target", [0, -2])
def test_clique_search_rejects_a_target_below_one(target):
    search = CliqueSearch([0b110, 0b101, 0b011])
    with pytest.raises(ValueError, match="at least 1"):
        search.run(target=target)
    assert search.run(target=3) == (3, (0, 1, 2))


def test_search_and_decisions_on_one_set_relabel_once():
    S = random_pointset(random.Random(22), 16)
    crossing._layout.cache_clear()
    cf, family = max_crossing_family(S)
    assert has_k_family(S, cf) is not None and has_k_family(S, cf + 1) is None
    info = crossing._layout.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert is_crossing_family(S, family) and cf == len(family)


def _fresh_digests(adj, targets):
    crossing._layout.cache_clear()
    return _search_tree_digests(adj, targets)


def test_shared_layout_keeps_every_search_tree():
    """Searches that hit the cached layout, and ones that follow an eviction,
    visit the same nodes, record the same cliques and return the same
    witness as searches on a freshly computed layout."""
    graphs = {
        "a": build_crossing_graph(random_pointset(random.Random(23), 12)).adjacency,
        "b": build_crossing_graph(convex_position_points(10)).adjacency,
    }
    targets = {name: [None, *range(1, CliqueSearch(adj).run()[0] + 2)]
               for name, adj in graphs.items()}
    fresh = {name: _fresh_digests(adj, targets[name]) for name, adj in graphs.items()}
    crossing._layout.cache_clear()
    for name in "aabab":
        assert _search_tree_digests(graphs[name], targets[name]) == fresh[name]
    info = crossing._layout.cache_info()
    assert info.misses == 4 and info.hits > 0


def test_equal_list_and_tuple_rows_share_one_layout():
    rows = build_crossing_graph(random_pointset(random.Random(25), 10)).adjacency
    crossing._layout.cache_clear()
    from_tuple, from_list = CliqueSearch(rows), CliqueSearch(list(rows))
    assert crossing._layout.cache_info().misses == 1
    assert from_list._adj is from_tuple._adj
    assert from_list._to_original is from_tuple._to_original
    assert from_list._skip is from_tuple._skip


def test_mutating_the_rows_after_construction_leaves_the_search_alone():
    rows = list(build_crossing_graph(random_pointset(random.Random(26), 10)).adjacency)
    original = tuple(rows)
    targets = [None, 1, 2, 3, 4]
    built = [CliqueSearch(rows) for _ in targets]
    rows[:] = [0] * len(rows)
    assert CliqueSearch(rows)._adj != built[0]._adj
    crossing._layout.cache_clear()
    for search, target in zip(built, targets):
        traced = _traced_run(lambda _: search, rows, target)
        assert traced == _traced_run(CliqueSearch, original, target)


def test_layout_is_immutable():
    search = CliqueSearch(build_crossing_graph(convex_position_points(8)).adjacency)
    for table in (search._to_original, search._adj, search._skip):
        assert isinstance(table, tuple) and len(table) == comb(8, 2)


def _random_symmetric_rows(rng, n, density):
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


# every edge of the matrix padding: sizes 8, 16, ..., 512 swapped whole, 1024
# by quadrants, 2048 by quadrants of quadrants
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129,
                               255, 256, 257, 511, 512, 513, 1025])
def test_layout_matches_the_text_transposition_on_random_graphs(n):
    rng = random.Random(n)
    for density in (0.05, 0.5, 1.0):
        rows = _random_symmetric_rows(rng, n, density)
        assert crossing._layout.__wrapped__(rows) == text_layout(rows)


@pytest.mark.parametrize("n", range(4, 31))
def test_layout_matches_the_text_transposition_on_crossing_graphs(n):
    rows = random_pointset(random.Random(n), n).crossing_rows
    assert crossing._layout.__wrapped__(rows) == text_layout(rows)


@pytest.mark.parametrize("name, m", [("n9_cf2", 2), ("n9_cf2", 3), ("n14_cf3", 2), ("n14_cf3", 3)])
def test_layout_matches_the_text_transposition_on_replicas(name, m):
    rows = _replica(name, m).crossing_rows
    assert crossing._layout.__wrapped__(rows) == text_layout(rows)


@pytest.mark.parametrize("size", [8, 16, 32, 64, 128, 256, 512])
def test_kept_swap_masks_match_their_definition(size):
    """The swap for j = size/2, ..., 1 shifts by j * (size - 1), and its mask
    holds bit r * size + c iff r & j == 0 and c & j != 0."""
    swaps = crossing._swaps(size)
    assert crossing._swaps(size) is swaps
    js = [size >> i for i in range(1, size.bit_length())]
    assert [shift for shift, _ in swaps] == [j * (size - 1) for j in js]
    for j, (_, mask) in zip(js, swaps):
        # the text of the mask, its top bit first: row size-1 down to row 0,
        # each from column size-1 down to column 0
        row = "".join(["1" if c & j else "0" for c in reversed(range(size))])
        zeros = "0" * size
        text = "".join([zeros if r & j else row for r in reversed(range(size))])
        assert mask == int(text, 2)
