import hashlib
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam import crossing
from crossfam.crossing import (
    CliqueSearch,
    _count_cliques,
    _count_cliques_meeting,
    brute_force_cf,
    build_crossing_graph,
    count_k_families,
    has_k_family,
    is_crossing_family,
    max_crossing_family,
)
from crossfam.errors import InvalidSegmentError, NotGeneralPositionError, SizeLimitError
from crossfam.geometry import (
    PointSet,
    Segment,
    all_segments,
    convex_position_points,
    normalize_coordinates,
    segments_cross,
)
from crossfam.replication import replicate_certified
from crossfam.store import load_bundled
from conftest import ReferenceSearch, random_pointset


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


def test_decide_and_count_build_no_segments(monkeypatch):
    built = []
    monkeypatch.setattr(crossing, "all_segments", lambda n: built.append(n) or all_segments(n))
    S = random_pointset(random.Random(21), 12)
    k = max_crossing_family(S)[0]
    assert has_k_family(S, k + 1) is None and count_k_families(S, 2) > 0
    assert built == [12]
    assert is_crossing_family(S, has_k_family(S, k)) and built == [12, 12]


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
    reversed, then every row relabeled bit by bit."""
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
    to_original = order[::-1]
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
    assert (search._to_original, search._adj) == _reference_relabel(adj)


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
    assert (search._to_original, search._adj) == _reference_relabel(adj)


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


def _traced_run(cls, adj, target=None):
    """(result, recorded cliques, ``_expand`` calls (clique, cand)) of one search, in order."""
    search = cls(adj)
    records, calls = [], []
    record, expand = search._record, search._expand

    def traced_record(clique):
        records.append(tuple(clique))
        record(clique)

    def traced_expand(clique, cand):
        calls.append((tuple(clique), cand))
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


def _search_tree_digests(adj):
    """(cf, SHA-256 of the ``_expand`` calls, SHA-256 of the recorded cliques).

    Both digests run over ``run()`` and then ``run(t)`` for t = 1..cf+1,
    each run closed by its result, so they pin the order of the nodes the
    search visits and of the cliques it records, not only its answers.
    """
    calls, records = hashlib.sha256(), hashlib.sha256()
    cf = CliqueSearch(adj).run()[0]
    for target in [None, *range(1, cf + 2)]:
        result, recorded, expanded = _traced_run(CliqueSearch, adj, target)
        for digest, items in [(calls, expanded), (records, recorded)]:
            for item in [*items, result]:
                digest.update(repr(item).encode())
    return cf, calls.hexdigest(), records.hexdigest()


def _replica(name, m):
    S, _ = load_bundled(name)
    return replicate_certified(normalize_coordinates(S), m)[0]


# recorded on the search before its branch loop walked colour classes
@pytest.mark.parametrize("points, cf, calls, records", [
    (lambda: _replica("n14_cf3", 3), 9,
     "17952277adb4e89f21bafebd348f8b968180f1289a0151855729ad4628968649",
     "d905929488add6126a53eacaf0011bd5d886bbc67b4d7b1915b58ca05fd859f8"),
    (lambda: _replica("n9_cf2", 4), 8,
     "752d4307f72e96665a007489429e1e1ba717e5f343cfae06b72e849b2c46a6e1",
     "f06e70f321422d95d59a588eb5f4178f111b9f343692bbb7e185ffa702cdb29c"),
    (lambda: random_pointset(random.Random(24), 24), 11,
     "e57d036b5020f6b6e2097eb6e96fa2e238d91369caa0d73483465d912118a925",
     "140b779f200d802802a647d1db93e4677640e9906427698a081bee28af55234f"),
    (lambda: convex_position_points(12), 6,
     "13e106528d6d3d1c1f3f1b53e4474ca4a807296c816bda9ef2d349b22c9c4aac",
     "714d6746fbf9e0f429c7c7eceff045ee62672211963a47c2dc648d7834a3f5bb"),
], ids=["n14_cf3-m3", "n9_cf2-m4", "random-24", "convex-12"])
def test_clique_search_visits_the_pinned_search_tree(points, cf, calls, records):
    adj = build_crossing_graph(points()).adjacency
    assert _search_tree_digests(adj) == (cf, calls, records)


@pytest.mark.parametrize("target", [0, -2])
def test_clique_search_rejects_a_target_below_one(target):
    search = CliqueSearch([0b110, 0b101, 0b011])
    with pytest.raises(ValueError, match="at least 1"):
        search.run(target=target)
    assert search.run(target=3) == (3, (0, 1, 2))
