from fractions import Fraction

import pytest

from crossfam.crossing import max_crossing_family
from crossfam.errors import (
    DegenerateEpsilonError,
    SameSourceSegmentError,
)
from crossfam.geometry import (
    Orientation,
    PointSet,
    Segment,
    convex_position_points,
    has_distinct_coordinates,
    is_general_position,
    normalize_coordinates,
    orientation,
)
from crossfam.known import DEFAULT_EXTREMAL_LIBRARY, best_known_upper_bound, bound_details
from crossfam.replication import (
    choose_epsilon,
    contract_family,
    replicate,
    replicate_certified,
    verify_cluster_isolation,
    verify_copy_order,
)
from crossfam.thrackle import GeometricGraph, is_forest, is_geometric_thrackle
from conftest import random_pointset

TRIANGLE = PointSet.from_coords([(0, 0), (4, 1), (1, 4)])


class TestReplicate:
    def test_m1_is_identity(self):
        S = convex_position_points(4)
        S2, cmap = replicate(S, 1, Fraction(1, 7))
        assert S2 == S
        assert cmap.entries == ((0, 0), (1, 0), (2, 0), (3, 0))

    def test_copy_positions_on_parabolic_arc(self):
        S = PointSet.from_coords([(0, 0), (10, 3)])
        eps = Fraction(1, 8)
        S2, cmap = replicate(S, 3, eps)
        assert len(S2) == 6
        for idx, (src, i) in enumerate(cmap.entries):
            assert S2[idx].x == S[src].x + i * eps
            assert S2[idx].y == S[src].y + (i * eps) ** 2

    def test_doubled_pentagon_bound(self):
        S = convex_position_points(5)
        S2, _, cert = replicate_certified(S, 2)
        assert len(S2) == 10 and cert.certified
        assert max_crossing_family(S2)[0] <= 2 * max_crossing_family(S)[0]

    def test_uncertified_spacing_still_emitted(self):
        S = PointSet.from_coords([(0, 0), (10, 10)])
        S2, cmap, cert = replicate_certified(S, 2, epsilon=Fraction(9, 8))
        assert len(S2) == 4
        assert not cert.copy_order_ok

    def test_degenerate_epsilon_rejected(self):
        # spacing equal to the x-gap collides copy 1 of the left point
        # with copy 0 of the right point
        S = PointSet.from_coords([(0, 0), (1, 3)])
        with pytest.raises(DegenerateEpsilonError):
            replicate(S, 2, 1)

    def test_requires_distinct_coordinates(self):
        S = PointSet.from_coords([(0, 0), (0, 2), (2, 1)])
        with pytest.raises(ValueError):
            replicate(S, 2, Fraction(1, 100))

    def test_total_drops_highest_copies_of_last_sources(self):
        S = normalize_coordinates(convex_position_points(4))
        S2, cmap = replicate(S, 3, Fraction(1, 64), total=10)
        assert len(S2) == 10
        per_source = [0, 0, 0, 0]
        for src, copy in cmap.entries:
            per_source[src] += 1
            assert copy < 3
        assert per_source == [3, 3, 2, 2]

    def test_copies_in_convex_position_on_arc(self):
        S = PointSet.from_coords([(0, 0), (100, 57)])
        S2, cmap = replicate(S, 4, Fraction(1, 16))
        for src in range(2):
            ids = cmap.copies_of(src)
            for a, b, c in zip(ids, ids[1:], ids[2:]):
                assert orientation(S2[a], S2[b], S2[c]) == Orientation.COUNTERCLOCKWISE


class TestVerifiers:
    def test_m1_vacuous(self):
        S = convex_position_points(5)
        S2, cmap = replicate(S, 1, Fraction(1, 2))
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S, S2, cmap)

    def test_certified_output_passes(self):
        S = TRIANGLE
        eps = choose_epsilon(S, 2)
        S2, cmap = replicate(S, 2, eps)
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S, S2, cmap)

    def test_coarse_sweep_finds_isolation_failure(self):
        # frozen from a sweep over multiples of 1/8 on the triangle fixture
        S2, cmap = replicate(TRIANGLE, 2, Fraction(15, 8))
        assert not verify_cluster_isolation(S2, cmap)

    def test_coarse_sweep_finds_copy_order_failure(self):
        # half the minimum point spacing
        S2, cmap = replicate(TRIANGLE, 2, Fraction(1, 2))
        assert not verify_copy_order(TRIANGLE, S2, cmap)

    def test_failures_exist_on_coarse_grid(self):
        found_s1 = found_s2 = False
        for num in range(1, 40):
            eps = Fraction(num, 8)
            try:
                S2, cmap = replicate(TRIANGLE, 2, eps)
            except DegenerateEpsilonError:
                continue
            found_s1 = found_s1 or not verify_cluster_isolation(S2, cmap)
            found_s2 = found_s2 or not verify_copy_order(TRIANGLE, S2, cmap)
        assert found_s1 and found_s2


class TestChooseEpsilon:
    def test_two_points(self):
        S = PointSet.from_coords([(0, 0), (10, 10)])
        eps = choose_epsilon(S, 2)
        S2, cmap = replicate(S, 2, eps)
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S, S2, cmap)

    def test_single_point(self):
        S = PointSet.from_coords([(3, 7)])
        eps = choose_epsilon(S, 3)
        S2, cmap = replicate(S, 3, eps)
        assert len(S2) == 3
        assert is_general_position(S2) and has_distinct_coordinates(S2)

    def test_deterministic(self):
        S = convex_position_points(5)
        assert choose_epsilon(S, 2) == choose_epsilon(S, 2)

    @pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (3, 3)])
    def test_random_sets_certifiable(self, rng, n, m):
        S = normalize_coordinates(random_pointset(rng, n))
        eps = choose_epsilon(S, m)
        S2, cmap = replicate(S, m, eps)
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S, S2, cmap)


class TestContractFamily:
    def test_empty(self):
        S = convex_position_points(4)
        S2, cmap = replicate(S, 2, choose_epsilon(S, 2))
        assert contract_family(S2, cmap, []) == ()

    def test_m1_renaming(self):
        S = convex_position_points(4)
        S2, cmap = replicate(S, 1, Fraction(1, 2))
        fam = (Segment(0, 2), Segment(1, 3))
        assert contract_family(S2, cmap, fam) == fam

    def test_same_source_segment_rejected(self):
        S = convex_position_points(4)
        S2, cmap = replicate(S, 2, choose_epsilon(S, 2))
        first_cluster = cmap.copies_of(0)
        with pytest.raises(SameSourceSegmentError):
            contract_family(S2, cmap, [Segment(first_cluster[0], first_cluster[1])])

    def test_doubled_pentagon_family_contracts_to_family(self):
        S = convex_position_points(5)
        S2, cmap, cert = replicate_certified(S, 2)
        assert cert.certified
        k2, fam2 = max_crossing_family(S2)
        assert k2 == 4
        contracted = contract_family(S2, cmap, fam2)
        assert len(contracted) >= k2 // 2
        from crossfam.crossing import is_crossing_family

        assert is_crossing_family(S, contracted)
        G = GeometricGraph(S, frozenset(contracted))
        assert is_geometric_thrackle(G) and is_forest(G)


class TestDeskScaleFactorLaw:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_convex_sources(self, n):
        S = convex_position_points(n)
        S2, _, cert = replicate_certified(S, 2)
        assert cert.certified
        assert max_crossing_family(S2)[0] <= 2 * max_crossing_family(S)[0]

    def test_random_sources(self, rng):
        for _ in range(5):
            S = normalize_coordinates(random_pointset(rng, rng.randint(4, 6)))
            S2, _, cert = replicate_certified(S, 2)
            assert cert.certified
            assert max_crossing_family(S2)[0] <= 2 * max_crossing_family(S)[0]


class TestBoundCalculator:
    def test_paper_values(self):
        assert best_known_upper_bound(41) == 8
        assert best_known_upper_bound(24) == 5
        assert best_known_upper_bound(9) == 2

    def test_winning_entry_reported(self):
        # 4*ceil(100/20) = 5*ceil(100/25) = 10*ceil(100/50) = 20; first entry wins
        bound, entry = bound_details(100)
        assert bound == 20 and entry == (4, 20)

    def test_endpoint_cap(self):
        bound, entry = bound_details(4, library=[(10, 50)])
        assert bound == 2 and entry is None

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            best_known_upper_bound(10, library=[])

    def test_weakly_increasing_in_n(self):
        values = [best_known_upper_bound(n) for n in range(2, 200)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_adding_entries_never_worsens(self):
        for n in range(2, 120):
            for cut in range(1, len(DEFAULT_EXTREMAL_LIBRARY)):
                assert (best_known_upper_bound(n)
                        <= best_known_upper_bound(n, DEFAULT_EXTREMAL_LIBRARY[:cut]))
