import hashlib
import random
from functools import cmp_to_key
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam import chirotope
from crossfam.chirotope import (
    crossing_rows,
    pair_masks,
    point_masks,
    refresh_point_rows,
    restrict_masks,
    segment_sides,
    side_masks,
    update_point_masks,
)
from crossfam.crossing import build_crossing_graph
from crossfam.errors import NotGeneralPositionError
from crossfam.geometry import (
    PointSet,
    all_segments,
    integer_coordinates,
    normalize_coordinates,
    orientation,
)
from crossfam.replication import replicate_certified
from crossfam.store import load_bundled
from conftest import collinear_triple, degeneracy, pairwise_rows, random_pointset

# The small grid makes collinear triples and repeated points common; the
# large one mostly yields sets in general position.
small_sets = st.sampled_from([6, 10_000]).flatmap(lambda r: st.lists(
    st.tuples(st.integers(-r, r), st.integers(-r, r)), min_size=2, max_size=12
))


@settings(max_examples=150, deadline=None)
@given(small_sets)
def test_graph_matches_pairwise_predicate(coords):
    S = PointSet.from_coords(coords)
    message = degeneracy(coords)
    if message is not None:
        with pytest.raises(NotGeneralPositionError) as exc:
            build_crossing_graph(S)
        assert str(exc.value) == message
        return
    assert list(build_crossing_graph(S).adjacency) == pairwise_rows(S)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-10_000, 10_000), st.integers(-10_000, 10_000)),
                min_size=2, max_size=20))
def test_rows_from_masks_match_pairwise_predicate(coords):
    try:
        left = side_masks(coords)
    except NotGeneralPositionError:
        return
    assert crossing_rows(left, len(coords)) == pairwise_rows(PointSet.from_coords(coords))


# The cut of a mask is read four points at a time: these sizes end on a
# chunk boundary (4, 8) or just past one (5, 9, 13, 17), or have one
# partial chunk only (2, 3).
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 13, 17])
def test_rows_at_cut_chunk_boundaries_match_pairwise_predicate(n):
    rng = random.Random(n)
    for bound in (n, 10_000):
        S = random_pointset(rng, n, bound=bound)
        left = side_masks([(p.x, p.y) for p in S])
        assert crossing_rows(left, n) == pairwise_rows(S)


@settings(max_examples=100, deadline=None)
@given(small_sets)
def test_segment_sides_match_direct_orientation(coords):
    try:
        left = side_masks(coords)
    except NotGeneralPositionError:
        return
    n = len(coords)
    S = PointSet.from_coords(coords)
    segments = all_segments(n)
    sides = segment_sides(left, n)
    assert len(sides) == n
    for p in range(n):
        expected = sum(1 << i for i, s in enumerate(segments)
                       if p not in (s.a, s.b) and orientation(S[s.a], S[s.b], S[p]) > 0)
        assert sides[p] == expected, p


# SHA-256 of repr(S.crossing_rows) for the bundled sets (m = 1) and their
# certified replicas, recorded with the earlier per-point row loop.
@pytest.mark.parametrize("name, m, digest", [
    ("n9_cf2", 1, "8e3848ee203f1b77b172d7c874440de0bb6a92f5e94d42e8f0f1cba1d773d5ac"),
    ("n9_cf2", 2, "9d4158e5215a97a73e77f7dc2c69ef609091792122a22975953cc7d0cf178b81"),
    ("n9_cf2", 3, "ffeb9f1eaaca94253eea46aa69f605a05562e119ff3a93d7d6d3ad1b149ac5b7"),
    ("n14_cf3", 1, "af2fb35e1943c756a93d6cdd8d9c45f42e584d0627be279c21db409ae0dda14a"),
    ("n14_cf3", 2, "7557185e73fa68a293e8811c8a92678abf247a8e215ff1950b5a948aef4ecb6a"),
    ("n14_cf3", 3, "612944ec8ebbe533b1953f197fbce73a061ae5dfe9ed3d98d749c5266f4c201d"),
])
def test_rows_of_bundled_sets_and_replicas_are_pinned(name, m, digest):
    S, _ = load_bundled(name)
    if m > 1:
        S = replicate_certified(normalize_coordinates(S), m)[0]
    assert hashlib.sha256(repr(S.crossing_rows).encode()).hexdigest() == digest


def orientation_table(coords) -> list[int]:
    """The side-mask table from :func:`orientation` on every ordered triple."""
    S = PointSet.from_coords(coords)
    n = len(S)
    return [sum(1 << c for c in range(n) if a != b and c not in (a, b)
                and orientation(S[a], S[b], S[c]) > 0)
            for a in range(n) for b in range(n)]


def greedy_general_position(coords) -> list[tuple[int, int]]:
    """The points of ``coords`` taken in turn, each kept if no two kept points and it are collinear."""
    kept = []
    for p in coords:
        if p not in kept and collinear_triple(kept + [p]) is None:
            kept.append(p)
    return kept


@st.composite
def swept_sets(draw):
    """Small-grid sets, many of their pairs parallel, spread so that the sweep's
    float keys tie or overflow.

    Spread by 2**60 and moved by at most 2, pairs once parallel are nearly
    parallel and share a float key. Scaling one axis keeps the order type:
    by 10**400 on x every key of a pair not horizontal is past float range,
    and on y every such key rounds to 0.0. The greedy subset keeps most sets
    in general position.
    """
    grid = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=14))
    if draw(st.booleans()):
        moves = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                              min_size=len(grid), max_size=len(grid)))
        grid = [(x * 2**60 + dx, y * 2**60 + dy) for (x, y), (dx, dy) in zip(grid, moves)]
    sx, sy = draw(st.sampled_from([(1, 1), (10**400, 1), (1, 10**400)]))
    coords = [(x * sx, y * sy) for x, y in grid]
    return greedy_general_position(coords) if draw(st.booleans()) else coords


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_sets, swept_sets()))
def test_side_masks_match_direct_orientation(coords):
    message = degeneracy(coords)
    if message is not None:
        with pytest.raises(NotGeneralPositionError) as exc:
            side_masks(coords)
        assert str(exc.value) == message
        assert exc.value.triple == collinear_triple(coords)
        return
    assert side_masks(coords) == orientation_table(coords)


def kernel_pool():
    """Seeded sets of 0 to 60 points, in general position or not, for the pinned digest.

    Per size: a wide random set, distinct points of a 9 x 9 grid, and from
    3 points on, points of a 5 x 5 grid that may repeat; then the full 4 x 4
    to 6 x 6 grids and 20 greedy general-position subsets of each, sets
    whose pairs are parallel in many runs.
    """
    rng = random.Random(36)
    for n in range(61):
        yield [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(n)]
        yield rng.sample([(x, y) for x in range(-4, 5) for y in range(-4, 5)], n)
        if n >= 3:
            yield [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
    for side in (4, 5, 6):
        grid = [(x, y) for x in range(side) for y in range(side)]
        yield grid
        for _ in range(20):
            yield greedy_general_position(rng.sample(grid, len(grid)))


def test_kernel_pool_digest_is_pinned():
    # SHA-256 of each set's table, or its error message and triple, recorded
    # with the kernel that took one determinant per sorted triple.
    digest = hashlib.sha256()
    for coords in kernel_pool():
        try:
            outcome = tuple(side_masks(coords))
        except NotGeneralPositionError as exc:
            outcome = str(exc), exc.triple
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == "3627ee74e22df270dc6a0d73c72b84ec7904e69b9652e27eb30751f4d6216496"


@pytest.fixture
def exact_sorts(monkeypatch):
    """One entry per sort of the kernel's pairs by exact comparison."""
    sorts = []

    def counted(compare):
        sorts.append(compare)
        return cmp_to_key(compare)

    monkeypatch.setattr(chirotope, "cmp_to_key", counted)
    return sorts


def test_float_ties_of_distinct_directions_are_ordered_exactly(exact_sorts):
    # The directions 0 -> 1, 0 -> 2 and 1 -> 2 differ by less than a float's
    # resolution at 10**17, so their keys are equal; the labelings that list
    # them out of exact order take the exact sort.
    base = [(0, 0), (10**17, 1), (2 * 10**17 + 1, 2), (5, -3)]
    labelings = list(permutations(range(4)))
    for labels in labelings:
        coords = [base[i] for i in labels]
        assert side_masks(coords) == orientation_table(coords)
    assert 0 < len(exact_sorts) < len(labelings)


@pytest.mark.parametrize("scale", [(10**400, 1), (1, 10**400)])
def test_keys_past_float_range_take_the_exact_sort(exact_sorts, scale):
    # A positive scaling of one axis changes no orientation. Scaled on x,
    # the keys overflow; on y, they all round to 0.0 and tie out of order.
    S, _ = load_bundled("n14_cf3")
    coords = integer_coordinates(S)
    scaled = [(x * scale[0], y * scale[1]) for x, y in coords]
    assert side_masks(scaled) == side_masks(coords)
    assert len(exact_sorts) == 1


@pytest.mark.parametrize("coords, table", [
    ([], []),
    ([(5, -2)], [0]),
    ([(0, 0), (1, 0)], [0, 0, 0, 0]),
    ([(0, 0), (1, 0), (0, 1)], [0, 0b100, 0, 0, 0, 0b1, 0b10, 0, 0]),
])
def test_tables_of_up_to_three_points(coords, table):
    assert side_masks(coords) == table == orientation_table(coords)


@pytest.mark.parametrize("coords, message, triple", [
    ([(1, 1), (1, 1)], "points 0 and 1 coincide", None),
    ([(0, 0), (2, 2), (0, 0)], "points (0, 1, 2) are collinear", (0, 1, 2)),
    ([(0, 0), (1, 2), (2, 4)], "points (0, 1, 2) are collinear", (0, 1, 2)),
    ([(0, 0), (10**400, 1), (2 * 10**400, 2)], "points (0, 1, 2) are collinear", (0, 1, 2)),
])
def test_degenerate_sets_of_up_to_three_points(coords, message, triple):
    with pytest.raises(NotGeneralPositionError) as exc:
        side_masks(coords)
    assert str(exc.value) == message
    assert exc.value.triple == triple


@settings(max_examples=150, deadline=None)
@given(small_sets, st.data())
def test_point_masks_match_direct_orientation(coords, data):
    n = len(coords)
    p = data.draw(st.integers(0, n - 1))
    S = PointSet.from_coords(coords)
    others = [b for b in range(n) if b != p]
    degenerate = any(coords[b] == coords[p] for b in others) or any(
        orientation(S[p], S[b], S[c]) == 0 for b, c in combinations(others, 2)
    )
    masks = point_masks(coords, p)
    if degenerate:
        assert masks is None
        return
    assert masks == [sum(1 << c for c in others if c != b and orientation(S[p], S[b], S[c]) > 0)
                    if b != p else 0 for b in range(n)]


@settings(max_examples=150, deadline=None)
@given(small_sets, st.data())
def test_pair_masks_match_direct_orientation(coords, data):
    n = len(coords)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda pair: pair[0] != pair[1]), max_size=8))
    S = PointSet.from_coords(coords)
    degenerate = any(coords[a] == coords[b] or any(
        orientation(S[a], S[b], S[c]) == 0 for c in range(n) if c not in (a, b)
    ) for a, b in pairs)
    masks = pair_masks(coords, pairs)
    if degenerate:
        assert masks is None
        return
    assert masks == [sum(1 << c for c in range(n) if orientation(S[a], S[b], S[c]) > 0)
                     for a, b in pairs]
    if degeneracy(coords) is None:
        left = side_masks(coords)
        assert masks == [left[a * n + b] for a, b in pairs]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 12), (13, 64), (65, 90)]),
       st.sampled_from(["none", "two", "any"]))
def test_restricted_table_matches_a_fresh_pass(seed, sizes, dropped):
    # sets above 64 points take fields of more than one word
    rng = random.Random(seed)
    n = rng.randint(*sizes)
    S = random_pointset(rng, n, 10_000)
    coords = [(p.x, p.y) for p in S]
    if dropped == "none":
        kept = list(range(n))
    else:
        k = max(n - 2, 0) if dropped == "two" else rng.randint(0, n)
        kept = sorted(rng.sample(range(n), k))
    expected = side_masks([coords[i] for i in kept])
    assert restrict_masks(side_masks(coords), n, kept) == expected
    subset = S.subset(kept)
    assert subset == PointSet(tuple(S[i] for i in kept))
    assert list(subset.side_masks) == expected


@pytest.mark.parametrize("kept", [[1, 0], [2, 2], [0, 5], [-1, 3]])
def test_restriction_needs_increasing_indices_in_range(kept):
    left = side_masks([(0, 0), (3, 1), (1, 4), (5, 6), (7, 2)])
    with pytest.raises(ValueError, match="kept indices must increase"):
        restrict_masks(left, 5, kept)


def test_table_holds_sorted_triple_orientations(rng):
    S = random_pointset(rng, 9)
    left = side_masks([(p.x, p.y) for p in S])
    assert len(left) == 9 ** 2
    for a, b, c in combinations(range(9), 3):
        assert (left[a * 9 + b] >> c & 1) == (orientation(S[a], S[b], S[c]) > 0)


@pytest.mark.parametrize("n", [4, 7, 11])
def test_moved_point_updates_match_full_rebuild(n):
    rng = random.Random(n)
    coords = [(p.x, p.y) for p in random_pointset(rng, n, bound=40)]
    left = side_masks(coords)
    sides = segment_sides(left, n)
    rows = crossing_rows(left, n)
    moves = 0
    while moves < 30:
        p = rng.randrange(n)
        old = coords[p]
        coords[p] = (rng.randint(-40, 40), rng.randint(-40, 40))
        masks = point_masks(coords, p)
        if masks is None:
            coords[p] = old
            assert left == side_masks(coords)
            continue
        update_point_masks(left, sides, p, masks)
        before = rows.copy()
        changed = refresh_point_rows(rows, left, sides, n, p)
        through_p = [i for i, (a, b) in enumerate(combinations(range(n), 2)) if p in (a, b)]
        assert changed == [(before[i], rows[i]) for i in through_p if before[i] != rows[i]]
        assert left == side_masks(coords)
        assert sides == segment_sides(left, n)
        assert rows == crossing_rows(left, n)
        assert rows == pairwise_rows(PointSet.from_coords(coords))
        moves += 1


def test_failed_update_leaves_masks_restorable():
    coords = [(0, 0), (4, 1), (1, 5), (-3, 2), (2, -4)]
    left = side_masks(coords)
    sides = segment_sides(left, 5)
    before = left.copy()
    coords[1] = (2, 10)  # collinear with (0, 0) and (1, 5)
    assert point_masks(coords, 1) is None
    coords[1] = (4, 1)
    update_point_masks(left, sides, 1, point_masks(coords, 1))
    assert left == before
    assert sides == segment_sides(left, 5)


def test_update_rejects_coincident_points():
    coords = [(0, 0), (3, 1)]
    assert point_masks(coords, 1) == [0, 0]
    coords[1] = (0, 0)
    assert point_masks(coords, 1) is None
