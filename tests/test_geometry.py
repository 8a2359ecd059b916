import pickle
import random
from dataclasses import FrozenInstanceError, astuple
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfam.chirotope import side_masks
from crossfam.errors import InvalidSegmentError, NotGeneralPositionError
from crossfam.geometry import (
    Orientation,
    Point,
    PointSet,
    Segment,
    all_segments,
    convex_position_points,
    has_distinct_coordinates,
    integer_coordinates,
    is_general_position,
    normalize_coordinates,
    orientation,
    segments_cross,
    to_integer_coordinates,
)
from crossfam.crossing import build_crossing_graph
from conftest import (
    degeneracy,
    exact_pointsets,
    exact_segments,
    outcome,
    pairwise_rows,
    random_pointset,
    reference_cross,
)


def P(x, y):
    return Point(x, y)


class TestOrientation:
    def test_unit_right_triangle_ccw(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == Orientation.COUNTERCLOCKWISE

    def test_points_on_x_axis_collinear(self):
        assert orientation(P(0, 0), P(1, 0), P(2, 0)) == Orientation.COLLINEAR

    def test_transposition_flips_sign(self):
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) == Orientation.CLOCKWISE

    def test_rational_inputs(self):
        assert orientation(P(Fraction(1, 3), 0), P(1, 0), P(0, Fraction(1, 7))) \
            == Orientation.COUNTERCLOCKWISE

    @given(st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
                    min_size=3, max_size=3))
    def test_antisymmetry_under_transpositions(self, coords):
        pts = [P(x, y) for x, y in coords]
        base = orientation(*pts)
        for perm in permutations(range(3)):
            swaps = sum(1 for i, j in combinations(range(3), 2) if perm[i] > perm[j])
            expected = base if swaps % 2 == 0 else Orientation(-base)
            assert orientation(*(pts[i] for i in perm)) == expected

    def test_agrees_with_bigint_determinant_on_random_triples(self):
        # exactness guard: 10^5 random triples with coordinates up to 2^62
        rng = random.Random(99)
        bound = 2 ** 62
        for _ in range(100_000):
            ax, ay, bx, by, cx, cy = (rng.randint(-bound, bound) for _ in range(6))
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            expected = (det > 0) - (det < 0)
            assert orientation(P(ax, ay), P(bx, by), P(cx, cy)) == expected

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_rationals_agree_with_the_fraction_formula(self, data):
        # large, negative and integer-valued rationals, mixed with plain ints,
        # and collinear triples: r on the line through p and q
        big = st.integers(-2 ** 80, 2 ** 80)
        coord = st.one_of(big, st.builds(Fraction, big, st.integers(1, 2 ** 70)),
                          st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
        p, q = (P(data.draw(coord), data.draw(coord)) for _ in range(2))
        if data.draw(st.booleans()):
            t = Fraction(data.draw(coord))
            r = P(Fraction(p.x) + t * (q.x - p.x), Fraction(p.y) + t * (q.y - p.y))
        else:
            r = P(data.draw(coord), data.draw(coord))
        fp, fq, fr = ((Fraction(s.x), Fraction(s.y)) for s in (p, q, r))
        det = (fq[0] - fp[0]) * (fr[1] - fp[1]) - (fq[1] - fp[1]) * (fr[0] - fp[0])
        assert orientation(p, q, r) == (det > 0) - (det < 0)

    def test_rejects_float_coordinates(self):
        with pytest.raises(TypeError):
            Point(0.5, 1)

    @pytest.mark.parametrize("coords", [[(True, 0), (0, 1), (2, 5)], [(0, 0), (1, False)]])
    def test_rejects_bool_coordinates(self, coords):
        # format_pointset would write True or False, which parse_pointset rejects
        with pytest.raises(TypeError, match="got bool"):
            PointSet.from_coords(coords)


class TestSegment:
    def test_endpoints_sorted(self):
        s = Segment(5, 2)
        assert (s.a, s.b) == (2, 5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Segment(3, 3)

    def test_constructor_still_sorts_and_checks(self):
        assert repr(Segment(3, 1)) == "Segment(a=1, b=3)"
        with pytest.raises(ValueError, match="degenerate"):
            Segment(2, 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 24])
    def test_bulk_segments_are_ordinary_segments(self, n):
        segments = all_segments(n)
        assert type(segments) is tuple and len(segments) == comb(n, 2)
        for s, (a, b) in zip(segments, combinations(range(n), 2)):
            made = Segment(a, b)
            assert type(s) is Segment and (s.a, s.b) == (a, b)
            assert s == made and hash(s) == hash(made)
            assert repr(s) == repr(made) == f"Segment(a={a}, b={b})"
            assert vars(s) == vars(made)
            copy = pickle.loads(pickle.dumps(s))
            assert type(copy) is Segment and copy == made and vars(copy) == vars(made)
            assert astuple(s) == astuple(made) == (a, b)
            with pytest.raises(FrozenInstanceError):
                s.a = b
        for s, t in zip(segments, segments[1:]):
            made = Segment(t.a, t.b)
            assert s < t and s < made and not made < s and not t < s


class TestSegmentsCross:
    def test_square_diagonals(self):
        S = PointSet.from_coords([(0, 0), (2, 2), (0, 2), (2, 0)])
        assert segments_cross(S, Segment(0, 1), Segment(2, 3))

    def test_parallel_sides(self):
        S = PointSet.from_coords([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert not segments_cross(S, Segment(0, 1), Segment(2, 3))

    def test_shared_endpoint_never_crosses(self):
        S = PointSet.from_coords([(0, 0), (1, 0), (0, 1)])
        assert not segments_cross(S, Segment(0, 1), Segment(1, 2))

    def test_index_out_of_range(self):
        S = PointSet.from_coords([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(InvalidSegmentError):
            segments_cross(S, Segment(0, 1), Segment(2, 7))

    def test_collinear_overlap_counts_as_non_crossing(self):
        S = PointSet.from_coords([(0, 0), (3, 0), (1, 0), (2, 0)])
        assert not segments_cross(S, Segment(0, 1), Segment(2, 3))

    def test_endpoint_on_the_other_segment_is_non_crossing(self):
        # the line of 0-1 splits 2 from 3, but point 1 lies on segment 2-3;
        # in either order, so each side's collinear test is met
        S = PointSet.from_coords([(0, 0), (1, 0), (1, -1), (1, 1)])
        assert not segments_cross(S, Segment(0, 1), Segment(2, 3))
        assert not segments_cross(S, Segment(2, 3), Segment(0, 1))

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                    min_size=4, max_size=4, unique=True))
    def test_symmetric_in_segment_arguments(self, coords):
        S = PointSet.from_coords(coords)
        s1, s2 = Segment(0, 1), Segment(2, 3)
        assert segments_cross(S, s1, s2) == segments_cross(S, s2, s1)

    @settings(max_examples=400)
    @given(st.data())
    def test_matches_the_orientation_reference(self, data):
        # int, Fraction and mixed grids: collinear triples, shared endpoints,
        # a segment against itself, and indices one past either end
        S = data.draw(exact_pointsets())
        s1, s2 = data.draw(exact_segments(len(S), -1, 1)), data.draw(exact_segments(len(S), -1, 1))
        assert outcome(segments_cross, S, s1, s2) == outcome(reference_cross, S, s1, s2)
        # an endpoint strictly inside the other segment, in either order
        p, q = S[0], S[1]
        t = data.draw(st.fractions(0, 1).filter(lambda f: 0 < f < 1))
        inner = (p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
        T = PointSet.from_coords([(r.x, r.y) for r in S] + [inner])
        s1, s2 = Segment(0, 1), Segment(len(S), data.draw(st.integers(2, len(S) - 1)))
        for s, u in ((s1, s2), (s2, s1)):
            assert segments_cross(T, s, u) == reference_cross(T, s, u)


class TestGeneralPosition:
    def test_triangle(self):
        assert is_general_position(PointSet.from_coords([(0, 0), (1, 0), (0, 1)]))

    def test_collinear_on_diagonal(self):
        assert not is_general_position(PointSet.from_coords([(0, 0), (1, 1), (2, 2)]))

    def test_four_point_example(self):
        # all 4 triples have determinant +-8, checked by hand
        assert is_general_position(PointSet.from_coords([(0, 0), (3, 1), (1, 3), (4, 4)]))

    def test_small_sets_vacuous(self):
        assert is_general_position(PointSet.from_coords([(0, 0), (5, 5)]))
        assert is_general_position(PointSet.from_coords([(0, 0)]))
        assert is_general_position(PointSet.from_coords([]))

    def test_two_coincident_points(self):
        S = PointSet.from_coords([(3, Fraction(1, 2)), (3, Fraction(2, 4))])
        assert not is_general_position(S)
        with pytest.raises(NotGeneralPositionError, match=r"^points 0 and 1 coincide$") as exc:
            S.side_masks
        assert exc.value.triple is None

    # Small ranges make coincident points and collinear triples common.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.integers(-4, 4), st.fractions(-2, 2, max_denominator=4)),
                              st.one_of(st.integers(-4, 4), st.fractions(-2, 2, max_denominator=4))),
                    max_size=9))
    @example([])
    @example([(1, 1)])
    @example([(1, 1), (1, 1)])
    @example([(0, 0), (3, 1), (0, 0)])
    @example([(Fraction(1, 2), 0), (1, Fraction(1, 3)), (Fraction(3, 2), Fraction(2, 3))])
    @example([(Fraction(1, 2), 0), (1, Fraction(1, 3)), (Fraction(3, 2), Fraction(3, 4))])
    def test_agrees_with_pairwise_oracle(self, coords):
        expected = degeneracy(coords) is None
        assert is_general_position(PointSet.from_coords(coords)) == expected


class TestSideMasks:
    def test_table_is_a_kept_read_only_tuple(self, kernel_passes):
        S = PointSet.from_coords([(0, 0), (Fraction(7, 2), 1), (1, 3), (4, Fraction(9, 2))])
        table = S.side_masks
        assert isinstance(table, tuple)
        assert list(table) == side_masks(integer_coordinates(S))
        assert S.side_masks is table and is_general_position(S)
        assert len(kernel_passes) == 1
        with pytest.raises(FrozenInstanceError):
            S.side_masks = ()
        assert S.side_masks is table

    def test_collinear_set_raises_on_every_read(self, kernel_passes):
        S = PointSet.from_coords([(0, 0), (3, 1), (1, 3), (2, 2)])
        for _ in range(3):
            with pytest.raises(NotGeneralPositionError) as exc:
                S.side_masks
            assert exc.value.triple == (1, 2, 3)
        assert not is_general_position(S)
        assert len(kernel_passes) == 4  # nothing is stored

    def test_crossing_rows_are_kept_beside_the_table(self, kernel_passes, row_builds):
        S = PointSet.from_coords([(0, 0), (Fraction(7, 2), 1), (1, 3), (4, Fraction(9, 2)), (2, -1)])
        rows = S.crossing_rows
        assert isinstance(rows, tuple) and list(rows) == pairwise_rows(S)
        assert S.crossing_rows is rows and build_crossing_graph(S).adjacency is rows
        assert len(kernel_passes) == 1 and row_builds == [5]
        with pytest.raises(FrozenInstanceError):
            S.crossing_rows = ()
        assert S.crossing_rows is rows

    @pytest.mark.parametrize("n", [0, 1])
    def test_sets_without_segments_have_empty_rows(self, n):
        S = PointSet.from_coords([(3, 4)] * n)
        assert S.crossing_rows == ()

    def test_collinear_set_has_no_crossing_rows(self, kernel_passes, row_builds):
        S = PointSet.from_coords([(0, 0), (3, 1), (1, 3), (2, 2)])
        for _ in range(3):
            with pytest.raises(NotGeneralPositionError) as exc:
                S.crossing_rows
            assert exc.value.triple == (1, 2, 3)
        assert len(kernel_passes) == 3 and row_builds == []
        assert vars(S).keys() == {"points"}  # nothing is stored

    def test_reading_the_table_leaves_identity_unchanged(self):
        # the extremal benchmark digest hashes repr(replica)
        S = PointSet.from_coords([(0, 0), (Fraction(7, 2), 1), (1, 3)])
        twin = PointSet.from_coords([(0, 0), (Fraction(7, 2), 1), (1, 3)])
        before = (repr(S), hash(S))
        S.side_masks
        S.crossing_rows
        assert (repr(S), hash(S)) == before == (repr(twin), hash(twin))
        assert S == twin and twin == S
        assert {S: 1}[twin] == 1


class TestNormalizeCoordinates:
    def test_identity_when_already_distinct(self):
        S = PointSet.from_coords([(0, 0), (1, 2), (2, 1)])
        assert normalize_coordinates(S) is S

    def test_shared_x_gets_separated(self):
        S = PointSet.from_coords([(0, 0), (0, 2), (2, 1)])
        out = normalize_coordinates(S)
        assert has_distinct_coordinates(out)
        for a, b, c in combinations(range(3), 3):
            assert orientation(out[a], out[b], out[c]) == orientation(S[a], S[b], S[c])

    def test_duplicate_points_rejected(self):
        S = PointSet.from_coords([(1, 1), (1, 1)])
        with pytest.raises(NotGeneralPositionError):
            normalize_coordinates(S)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_integer_sets_order_type_preserved(self, seed):
        rng = random.Random(seed)
        # duplicated coordinate values on purpose
        S = PointSet.from_coords(
            (rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(10)
        )
        if len({(p.x, p.y) for p in S}) != len(S):
            return
        out = normalize_coordinates(S)
        assert has_distinct_coordinates(out)
        assert len(out) == len(S)
        for a, b, c in combinations(range(len(S)), 3):
            assert orientation(out[a], out[b], out[c]) == orientation(S[a], S[b], S[c])

    def test_exhaustive_order_type_invariance_n12(self, rng):
        S = random_pointset(rng, 12, bound=30)
        # force a collision so the shear actually runs
        pts = list((p.x, p.y) for p in S)
        pts[1] = (pts[0][0], pts[1][1])
        T = PointSet.from_coords(pts)
        if not is_general_position(T):
            T = S
        out = normalize_coordinates(T)
        for a, b, c in combinations(range(12), 3):
            assert orientation(out[a], out[b], out[c]) == orientation(T[a], T[b], T[c])


class TestIntegerCoordinates:
    def test_rational_set_scaled_exactly(self):
        S = PointSet.from_coords([(Fraction(1, 2), 0), (1, Fraction(1, 3)), (0, 1)])
        coords = integer_coordinates(S)
        assert coords == [(1, 0), (2, 1), (0, 3)]

    def test_order_type_preserved(self, rng):
        S = random_pointset(rng, 8)
        sheared = normalize_coordinates(
            PointSet.from_coords((p.x + Fraction(1, 7) * p.y, p.y) for p in S)
        )
        out = to_integer_coordinates(sheared)
        for a, b, c in combinations(range(8), 3):
            assert orientation(out[a], out[b], out[c]) == orientation(sheared[a], sheared[b], sheared[c])


def test_convex_position_points_general_position():
    S = convex_position_points(12)
    assert is_general_position(S)
    assert has_distinct_coordinates(S)


def test_convex_position_points_rejects_a_negative_count():
    with pytest.raises(ValueError, match="point count must be non-negative"):
        convex_position_points(-1)
