import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.chirotope import (
    crossing_rows,
    orientation_table,
    refresh_point_rows,
    side_masks,
    triple_sign,
    update_point_signs,
)
from crossfam.crossing import build_crossing_graph
from crossfam.errors import NotGeneralPositionError
from crossfam.geometry import (
    PointSet,
    _collinear_triple,
    all_segments,
    orientation,
    segments_cross,
)
from conftest import random_pointset

# The small grid makes collinear triples and repeated points common; the
# large one mostly yields sets in general position.
small_sets = st.sampled_from([6, 10_000]).flatmap(lambda r: st.lists(
    st.tuples(st.integers(-r, r), st.integers(-r, r)), min_size=2, max_size=12
))


def pairwise_rows(S: PointSet) -> list[int]:
    segs = all_segments(len(S))
    rows = [0] * len(segs)
    for i, j in combinations(range(len(segs)), 2):
        if segments_cross(S, segs[i], segs[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


@settings(max_examples=150, deadline=None)
@given(small_sets)
def test_graph_matches_pairwise_predicate(coords):
    S = PointSet.from_coords(coords)
    bad = _collinear_triple(coords)
    if bad is not None:
        with pytest.raises(NotGeneralPositionError) as exc:
            build_crossing_graph(S)
        assert str(exc.value) == f"points {bad} are collinear"
        return
    assert list(build_crossing_graph(S).adjacency) == pairwise_rows(S)


@settings(max_examples=150, deadline=None)
@given(small_sets)
def test_side_masks_match_direct_orientation(coords):
    bad = _collinear_triple(coords)
    if bad is not None:
        with pytest.raises(NotGeneralPositionError) as exc:
            side_masks(coords)
        assert str(exc.value) == f"points {bad} are collinear"
        assert exc.value.triple == bad
        return
    n = len(coords)
    S = PointSet.from_coords(coords)
    left = side_masks(coords)
    assert len(left) == n * n
    for a in range(n):
        for b in range(n):
            expected = 0
            if a != b:
                for c in range(n):
                    if c not in (a, b) and orientation(S[a], S[b], S[c]) > 0:
                        expected |= 1 << c
            assert left[a * n + b] == expected, (a, b)


def test_table_holds_sorted_triple_orientations(rng):
    S = random_pointset(rng, 9)
    coords = [(p.x, p.y) for p in S]
    table = orientation_table(coords)
    assert len(table) == 9 ** 3
    for a, b, c in combinations(range(9), 3):
        assert triple_sign(table, 9, a, b, c) == orientation(S[a], S[b], S[c])


@pytest.mark.parametrize("n", [4, 7, 11])
def test_moved_point_updates_match_full_rebuild(n):
    rng = random.Random(n)
    coords = [(p.x, p.y) for p in random_pointset(rng, n, bound=40)]
    table = orientation_table(coords)
    rows = crossing_rows(table, n)
    moves = 0
    while moves < 30:
        p = rng.randrange(n)
        old = coords[p]
        coords[p] = (rng.randint(-40, 40), rng.randint(-40, 40))
        if not update_point_signs(table, coords, p):
            coords[p] = old
            assert update_point_signs(table, coords, p)
            assert table == orientation_table(coords)
            continue
        refresh_point_rows(rows, table, n, p)
        assert table == orientation_table(coords)
        assert rows == crossing_rows(table, n)
        assert rows == pairwise_rows(PointSet.from_coords(coords))
        moves += 1


def test_update_rejects_coincident_points():
    coords = [(0, 0), (3, 1)]
    table = [0] * 8
    assert update_point_signs(table, coords, 1)
    coords[1] = (0, 0)
    assert not update_point_signs(table, coords, 1)
