import importlib.util
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam import geometry
from crossfam.chirotope import pair_masks, side_masks
from crossfam.crossing import build_crossing_graph, max_crossing_family
from crossfam.errors import (
    DegenerateEpsilonError,
    NotGeneralPositionError,
    SameSourceSegmentError,
)
from crossfam.formats import format_certificate, parse_certificate
from crossfam.geometry import (
    Orientation,
    PointSet,
    Segment,
    convex_position_points,
    has_distinct_coordinates,
    integer_coordinates,
    is_general_position,
    normalize_coordinates,
    orientation,
)
from crossfam.known import DEFAULT_EXTREMAL_LIBRARY, best_known_upper_bound, bound_details
from crossfam.replication import (
    CopyMap,
    _copy_order_holds,
    _replica,
    _SpacingScreen,
    choose_epsilon,
    contract_family,
    replicate_certified,
    verify_cluster_isolation,
    verify_copy_order,
)
from crossfam.search import random_general_position
from crossfam.store import bundled_names, load_bundled
from crossfam.thrackle import GeometricGraph, is_forest, is_geometric_thrackle
from conftest import random_pointset, reference_choose_epsilon

TRIANGLE = PointSet.from_coords([(0, 0), (4, 1), (1, 4)])


class TestReplicate:
    def test_m1_is_identity(self):
        S = convex_position_points(4)
        S2, cmap, _ = replicate_certified(S, 1, Fraction(1, 7))
        assert S2 == S
        assert cmap.entries == ((0, 0), (1, 0), (2, 0), (3, 0))

    def test_copy_positions_on_parabolic_arc(self):
        S = PointSet.from_coords([(0, 0), (10, 3)])
        eps = Fraction(1, 8)
        S2, cmap, _ = replicate_certified(S, 3, eps)
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
            replicate_certified(S, 2, 1)

    @pytest.mark.parametrize("m, eps, total, message", [
        (True, None, None, "copy count must be an int, got bool"),
        (2, True, None, "exact spacing required, got bool"),
        (2, None, True, "total must be an int, got bool"),
        (2, Fraction(1, 64), True, "total must be an int, got bool"),
    ])
    def test_bool_argument_rejected(self, m, eps, total, message):
        # True == 1 would be replicated, then recorded as True, which no parser reads
        with pytest.raises(TypeError, match=message):
            replicate_certified(TRIANGLE, m, eps, total)

    def test_bool_copy_count_rejected_by_the_search(self):
        with pytest.raises(TypeError, match="copy count must be an int, got bool"):
            choose_epsilon(TRIANGLE, True)

    @pytest.mark.parametrize("eps", [0.1, 0.5, Decimal("0.5")])
    def test_inexact_spacing_rejected(self, eps):
        # Fraction(0.1) is not 1/10, so the replica would not be the one recorded
        with pytest.raises(TypeError, match="exact spacing required"):
            replicate_certified(TRIANGLE, 2, eps)

    def test_requires_distinct_coordinates(self):
        S = PointSet.from_coords([(0, 0), (0, 2), (2, 1)])
        with pytest.raises(ValueError):
            replicate_certified(S, 2, Fraction(1, 100))

    def test_total_drops_highest_copies_of_last_sources(self):
        S = normalize_coordinates(convex_position_points(4))
        S2, cmap, _ = replicate_certified(S, 3, Fraction(1, 64), total=10)
        assert len(S2) == 10
        per_source = [0, 0, 0, 0]
        for src, copy in cmap.entries:
            per_source[src] += 1
            assert copy < 3
        assert per_source == [3, 3, 2, 2]

    def test_copies_in_convex_position_on_arc(self):
        S = PointSet.from_coords([(0, 0), (100, 57)])
        S2, cmap, _ = replicate_certified(S, 4, Fraction(1, 16))
        for src in range(2):
            ids = cmap.copies_of(src)
            for a, b, c in zip(ids, ids[1:], ids[2:]):
                assert orientation(S2[a], S2[b], S2[c]) == Orientation.COUNTERCLOCKWISE

    @pytest.mark.parametrize("seed", range(6))
    def test_copies_of_matches_a_scan_of_the_entries(self, seed):
        # grouped once per map, in entry order; a relabelled map, a trimmed
        # one and a source with no copies give what a scan of the entries gives
        S = normalize_coordinates(convex_position_points(5))
        _, cmap, _ = replicate_certified(S, 3, Fraction(1, 64), total=13)
        entries = list(cmap.entries)
        random.Random(seed).shuffle(entries)
        for m in (cmap, CopyMap(tuple(entries), cmap.source_n)):
            fresh = CopyMap(m.entries, m.source_n)
            for src in range(-1, m.source_n + 1):
                scan = tuple(i for i, (s, _) in enumerate(m.entries) if s == src)
                assert m.copies_of(src) == scan and type(m.copies_of(src)) is tuple
            assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


class TestVerifiers:
    def test_m1_vacuous(self):
        S = convex_position_points(5)
        S2, cmap, _ = replicate_certified(S, 1, Fraction(1, 2))
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S, S2, cmap)

    def test_certified_output_passes(self):
        S = TRIANGLE
        eps = choose_epsilon(S, 2)
        S2, cmap, _ = replicate_certified(S, 2, eps)
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S, S2, cmap)

    def test_coarse_sweep_finds_isolation_failure(self):
        # frozen from a sweep over multiples of 1/8 on the triangle fixture
        S2, cmap, _ = replicate_certified(TRIANGLE, 2, Fraction(15, 8))
        assert not verify_cluster_isolation(S2, cmap)

    def test_coarse_sweep_finds_copy_order_failure(self):
        # half the minimum point spacing
        S2, cmap, _ = replicate_certified(TRIANGLE, 2, Fraction(1, 2))
        assert not verify_copy_order(TRIANGLE, S2, cmap)

    def test_copy_order_checks_both_directions(self):
        # trimmed to copy counts 2, 2, 1: no line runs through the copies of
        # the highest source, yet the line through the two copies of the
        # lowest one passes above that source's copy: it is right of 0 -> 1
        S = PointSet.from_coords([(-18, -15), (-16, 10), (12, 12)])
        S2, cmap, cert = replicate_certified(S, 3, Fraction(21, 8), 5)
        assert cmap.entries == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))
        assert orientation(S2[0], S2[1], S2[4]) == Orientation.CLOCKWISE
        assert cert.cluster_isolation_ok and not cert.copy_order_ok
        assert not verify_copy_order(S, S2, cmap)
        assert not reference_copy_order(S, S2, cmap)

    def test_failures_exist_on_coarse_grid(self):
        found_s1 = found_s2 = False
        for num in range(1, 40):
            eps = Fraction(num, 8)
            try:
                S2, cmap, _ = replicate_certified(TRIANGLE, 2, eps)
            except DegenerateEpsilonError:
                continue
            found_s1 = found_s1 or not verify_cluster_isolation(S2, cmap)
            found_s2 = found_s2 or not verify_copy_order(TRIANGLE, S2, cmap)
        assert found_s1 and found_s2


def _cross(coords, a, b, c, d):
    """Pairwise proper-crossing test on integer coordinates (indices distinct)."""
    ax, ay = coords[a]
    bx, by = coords[b]
    cx, cy = coords[c]
    dx, dy = coords[d]
    o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    if o1 == 0 or o2 == 0 or (o1 > 0) == (o2 > 0):
        return False
    o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    if o3 == 0 or o4 == 0:
        return False
    return (o3 > 0) != (o4 > 0)


def reference_cluster_isolation(S2, cmap):
    """Every pair of segments, one inside a cluster, one avoiding it."""
    coords = integer_coordinates(S2)
    n2 = len(coords)
    source = [cmap.source_of(i) for i in range(n2)]
    for src in range(cmap.source_n):
        for a, b in combinations(cmap.copies_of(src), 2):
            for c, d in combinations(range(n2), 2):
                if source[c] != src and source[d] != src and _cross(coords, a, b, c, d):
                    return False
    return True


def reference_copy_order(S, S2, cmap):
    """Every line through two copies of one source against every copy of another.

    The line must pass strictly above the copies of a lower source and
    strictly below those of a higher one.
    """
    coords = integer_coordinates(S2)
    for src, other in permutations(range(len(S)), 2):
        sign = 1 if S[src].y > S[other].y else -1
        for u, v in combinations(cmap.copies_of(src), 2):
            (ux, uy), (vx, vy) = sorted((coords[u], coords[v]))
            for w in cmap.copies_of(other):
                wx, wy = coords[w]
                if sign * ((vx - ux) * (wy - uy) - (vy - uy) * (wx - ux)) >= 0:
                    return False
    return True


def replication_case(seed):
    """A source set, a copy count, a spacing around the certified one, a total."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 6), rng.randint(1, 4)
    S = normalize_coordinates(random_general_position(n, rng, 30))
    # from well below the certified spacing (passes) to far above it (fails)
    eps = choose_epsilon(S, m) * Fraction(2) ** rng.randint(-2, 8)
    eps *= Fraction(rng.randint(1, 7), rng.randint(1, 7))
    total = rng.choice([None, rng.randint(n, n * m)])
    return S, m, eps, total


class TestVerifiersAgainstPairwiseReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_verifiers_agree(self, seed):
        S, m, eps, total = replication_case(seed)
        try:
            S2, cmap, _ = replicate_certified(S, m, eps, total)
        except DegenerateEpsilonError:
            return
        isolation = reference_cluster_isolation(S2, cmap)
        order = reference_copy_order(S, S2, cmap)
        assert verify_cluster_isolation(S2, cmap) == isolation
        assert verify_copy_order(S, S2, cmap) == order
        _, _, cert = replicate_certified(S, m, eps, total)
        assert (cert.cluster_isolation_ok, cert.copy_order_ok) == (isolation, order)
        # the verifiers read labels, not positions: relabel the replica
        perm = list(range(len(S2)))
        random.Random(seed).shuffle(perm)
        S2p = PointSet(tuple(S2[i] for i in perm))
        cmapp = CopyMap(tuple(cmap.entries[i] for i in perm), cmap.source_n)
        assert verify_cluster_isolation(S2p, cmapp) == isolation
        assert verify_copy_order(S, S2p, cmapp) == order
        assert reference_copy_order(S, S2p, cmapp) == order

    def test_sweep_covers_every_outcome(self):
        outcomes = set()
        for seed in range(200):
            S, m, eps, total = replication_case(seed)
            try:
                S2, cmap, _ = replicate_certified(S, m, eps, total)
            except DegenerateEpsilonError:
                continue
            outcome = (reference_cluster_isolation(S2, cmap), reference_copy_order(S, S2, cmap))
            assert (verify_cluster_isolation(S2, cmap),
                    verify_copy_order(S, S2, cmap)) == outcome
            outcomes.add(outcome)
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


#: choose_epsilon of the normalized bundled sets for m = 2, 3, 4
GOLDEN_EPSILON = {
    "n4_cf1": ("1/16", "1/24", "1/32"),
    "n9_cf2": ("1/16", "1/48", "1/64"),
    "n14_cf3": ("1/64", "1/96", "1/256"),
    "n20_cf4": ("7/64", "7/192", "7/512"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EPSILON))
def test_golden_epsilon_of_bundled_sets(name):
    assert set(GOLDEN_EPSILON) == set(bundled_names())
    S = normalize_coordinates(load_bundled(name)[0])
    assert tuple(str(choose_epsilon(S, m)) for m in (2, 3, 4)) == GOLDEN_EPSILON[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_EPSILON))
@pytest.mark.parametrize("m", [2, 3])
def test_searched_certificate_round_trips(name, m):
    cert = replicate_certified(normalize_coordinates(load_bundled(name)[0]), m)[2]
    assert parse_certificate(format_certificate(cert)) == cert


@pytest.mark.parametrize("name", sorted(GOLDEN_EPSILON))
@pytest.mark.parametrize("m", [2, 3])
def test_searched_spacing_builds_no_extra_replica(monkeypatch, name, m):
    # replicate_certified returns the replica its spacing search certified
    S = normalize_coordinates(load_bundled(name)[0])
    passes = []

    def counted_side_masks(coords):
        passes.append(tuple(coords))
        return side_masks(coords)

    monkeypatch.setattr(geometry, "side_masks", counted_side_masks)
    eps = choose_epsilon(S, m)
    searched = len(passes)
    passes.clear()
    S2, cmap, cert = replicate_certified(S, m)
    assert len(passes) <= searched
    assert len(set(passes)) == len(passes)  # no replica is built twice
    assert cert.epsilon == eps and cert.certified
    assert (S2, cmap) == replicate_certified(S, m, eps)[:2]


@pytest.mark.parametrize("name", ["n9_cf2", "n14_cf3"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_screen_leaves_one_replica_pass(kernel_passes, name, m):
    # every failing spacing is refuted before its replica is built: one
    # side-mask pass checks the source and one certifies the replica
    S = normalize_coordinates(load_bundled(name)[0])
    kernel_passes.clear()
    eps = choose_epsilon(S, m)
    searched = list(kernel_passes)
    assert str(eps) == GOLDEN_EPSILON[name][m - 2]
    S2 = replicate_certified(S, m, eps)[0]
    assert searched == [tuple(integer_coordinates(S)), tuple(integer_coordinates(S2))]


def test_trimmed_replica_keeps_its_table(kernel_passes):
    # the replica carries the table its certificate read, cut from the full
    # replica the search accepted; the source is checked once
    S0 = normalize_coordinates(load_bundled("n9_cf2")[0])
    eps = choose_epsilon(S0, 3)
    S2, _, cert = replicate_certified(S0, 3, eps, 25)
    graph = build_crossing_graph(S2)
    assert cert.certified and len(S2) == 25 and graph.edge_count > 0
    assert kernel_passes.count(tuple(integer_coordinates(S2))) == 0
    assert kernel_passes.count(tuple(integer_coordinates(S0))) == 1
    assert list(S2.side_masks) == side_masks(integer_coordinates(S2))


def test_trimmed_replicas_of_the_extremal_pool_are_cut_from_the_search(kernel_passes):
    # each job's replica takes no side-mask pass, and carries the kernel's table
    for inp in _extremal_pool(0):
        S0 = normalize_coordinates(inp.points)
        eps = choose_epsilon(S0, inp.m)
        kernel_passes.clear()
        S2, cmap, cert = replicate_certified(S0, inp.m, eps, inp.total)
        assert kernel_passes == []
        assert cert.certified and len(S2) == inp.total
        assert list(S2.side_masks) == side_masks(integer_coordinates(S2))
        assert (S2, cmap) == _replica(S0, inp.m, eps, inp.total)[:2]


class TestAcceptedReplica:
    """The full replica the spacing search keeps serves only its own source,
    copy count and spacing, and never changes an outcome."""

    S0 = normalize_coordinates(load_bundled("n9_cf2")[0])

    def _misses(self, kernel_passes, S, m, eps, total):
        kernel_passes.clear()
        S2 = replicate_certified(S, m, eps, total)[0]
        assert tuple(integer_coordinates(S2)) in kernel_passes
        assert S2 == _replica(S, m, eps, total)[0]

    def test_another_source_misses(self, kernel_passes):
        eps = choose_epsilon(self.S0, 3)
        relabeled = PointSet(self.S0.points[1:] + self.S0.points[:1])
        self._misses(kernel_passes, relabeled, 3, eps, 20)

    def test_another_copy_count_misses(self, kernel_passes):
        eps = choose_epsilon(self.S0, 3)
        self._misses(kernel_passes, self.S0, 2, eps, 15)

    def test_another_spacing_misses(self, kernel_passes):
        eps = choose_epsilon(self.S0, 3)
        self._misses(kernel_passes, self.S0, 3, eps / 2, 20)

    def test_uncertified_spacing_stays_uncertified(self):
        S = PointSet.from_coords([(0, 0), (10, 10)])
        assert replicate_certified(S, 2, choose_epsilon(S, 2), 3)[2].certified
        cert = replicate_certified(S, 2, Fraction(9, 8), 3)[2]
        assert not cert.copy_order_ok and not cert.certified

    def test_colliding_spacing_still_raises(self):
        S = PointSet.from_coords([(0, 0), (1, 3)])
        choose_epsilon(S, 2)
        with pytest.raises(DegenerateEpsilonError, match="collides"):
            replicate_certified(S, 2, 1, 3)

    def test_int_spacing_is_recorded_as_given(self, kernel_passes):
        S = PointSet.from_coords([(0, 0), (64, 256)])
        assert choose_epsilon(S, 2) == Fraction(2)
        kernel_passes.clear()
        S2, _, cert = replicate_certified(S, 2, 2, 3)
        assert kernel_passes == []  # cut from the accepted replica
        assert type(cert.epsilon) is int and cert.epsilon == 2 and cert.certified
        assert format_certificate(cert) == format_certificate(_replica(S, 2, 2, 3)[2])
        assert parse_certificate(format_certificate(cert)) == cert


class FullSweepScreen(_SpacingScreen):
    """The spacing screen with every line through two sources read over every
    replica point by ``pair_masks``; the clusters a line splits are found
    from its mask, by comparing each copy layer with the first."""

    def refutes(self, eps):
        n, m = self._n, self._m
        ex, ey = eps * self._lx, eps * eps * self._ly
        xs = [x * ex.denominator + i * ex.numerator for i in range(m) for x in self._x]
        ys = [y * ey.denominator + i * i * ey.numerator for i in range(m) for y in self._y]
        if len(set(xs)) < len(xs) or len(set(ys)) < len(ys):
            return True
        coords = list(zip(xs, ys))
        lines = pair_masks(coords, self._line_pairs)
        if lines is None or not _copy_order_holds(self._lines, lines):
            return True
        index = {(u, v): i for i, (v, u) in enumerate(self._line_pairs)}
        source_pairs = list(combinations(range(n), 2))
        sources = pair_masks(coords, source_pairs)
        if sources is None:
            return True
        layer = (1 << n) - 1  # one copy of every source
        for (a, b), mask in zip(source_pairs, sources):
            split = 0  # sources with copies on both sides of a -> b
            for shift in range(n, n * m, n):
                split |= (mask >> shift ^ mask) & layer
            split &= ~(1 << a | 1 << b)
            for s in range(n):
                if not split >> s & 1:
                    continue
                for q, r in combinations(range(s, n * m, n), 2):
                    if (mask >> q ^ mask >> r) & 1:
                        line = lines[index[q, r]]
                        if (line >> a ^ line >> b) & 1:
                            return True
        return False


def _assert_screen_matches_the_full_sweep(S, m, eps):
    """Same verdict as the screen that reads its source lines over every point."""
    assert _SpacingScreen(S, m).refutes(eps) == FullSweepScreen(S, m).refutes(eps)


def rational_screen_case(seed):
    """Rational sources in general position, n <= 9 and m <= 5, and 12 halvings
    of a spacing from near the search's start to well below it."""
    rng = random.Random(seed)
    n, m = rng.randint(3, 9), rng.randint(2, 5)
    while True:
        S = PointSet.from_coords([(Fraction(rng.randint(-40, 40), rng.randint(1, 6)),
                                   Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
                                  for _ in range(n)])
        if is_general_position(S) and has_distinct_coordinates(S):
            break
    gaps = [abs(p.x - q.x) for p, q in combinations(S, 2)]
    gaps += [abs(p.y - q.y) for p, q in combinations(S, 2)]
    eps = min(gaps) / (4 * m) * 2 ** rng.randint(0, 5)
    eps *= Fraction(rng.randint(1, 7), rng.randint(1, 7))
    return S, m, [eps / 2**h for h in range(12)]


def _extremal_pool(seed):
    """The inputs of the benchmark's ``extremal`` workload at ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [inp for rnd in workloads.extremal_inputs(seed) for inp in rnd]


class TestSpacingScreen:
    def test_source_lines_match_the_full_sweep_on_the_extremal_pool(self):
        # every spacing the search screens, from its start to the accepted one
        reached = 0
        for inp in _extremal_pool(0):
            S, m = normalize_coordinates(inp.points), inp.m
            gaps = [abs(p.x - q.x) for p, q in combinations(S, 2)]
            gaps += [abs(p.y - q.y) for p, q in combinations(S, 2)]
            eps, accepted = Fraction(min(gaps)) / (4 * m), choose_epsilon(S, m)
            while eps >= accepted:
                _assert_screen_matches_the_full_sweep(S, m, eps)
                reached += 1
                eps /= 2
        assert reached > 180

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_source_lines_match_the_full_sweep(self, seed):
        S, m, eps, _ = replication_case(seed)
        _assert_screen_matches_the_full_sweep(S, m, eps)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_source_lines_match_the_full_sweep_on_rational_sets(self, seed):
        S, m, spacings = rational_screen_case(seed)
        for eps in spacings:
            _assert_screen_matches_the_full_sweep(S, m, eps)

    def test_rational_sets_are_refuted_by_source_lines_alone(self):
        # some spacings pass every line through two copies of one source and
        # are refuted only by a line through two sources
        alone = 0
        for seed in range(40):
            S, m, spacings = rational_screen_case(seed)
            screen, copy_lines = _SpacingScreen(S, m), _SpacingScreen(S, m)
            copy_lines._source_lines = []
            for eps in spacings:
                refuted = screen.refutes(eps)
                assert refuted == FullSweepScreen(S, m).refutes(eps)
                alone += refuted and not copy_lines.refutes(eps)
        assert alone > 0

    def test_third_point_on_a_source_line_is_refuted(self):
        # no cluster is split: only the count of the points on the line
        # through sources 0 and 1 refutes this spacing
        S = PointSet.from_coords([(-4, 2), (1, 0), (5, -3)])
        assert _SpacingScreen(S, 2).refutes(Fraction(1))
        assert FullSweepScreen(S, 2).refutes(Fraction(1))
        with pytest.raises(DegenerateEpsilonError,
                           match=r"epsilon 1 makes points \(0, 2, 5\) collinear"):
            _replica(S, 2, Fraction(1), None)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_refuted_spacing_fails_the_full_pass(self, seed):
        S, m, eps, _ = replication_case(seed)
        if not _SpacingScreen(S, m).refutes(eps):
            return
        try:
            _, _, cert = _replica(S, m, eps, None)
        except DegenerateEpsilonError:
            return
        assert not cert.certified

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_search_matches_the_unscreened_search(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 7), rng.randint(1, 4)
        S = normalize_coordinates(random_general_position(n, rng, rng.choice([8, 30, 200])))
        assert choose_epsilon(S, m) == reference_choose_epsilon(S, m)

    def test_sweep_refutes_every_kind_of_failure(self):
        # degenerate, copy-order and cluster-isolation failures are each refuted
        kinds = set()
        for seed in range(300):
            S, m, eps, _ = replication_case(seed)
            if not _SpacingScreen(S, m).refutes(eps):
                continue
            try:
                _, _, cert = _replica(S, m, eps, None)
            except DegenerateEpsilonError:
                kinds.add("degenerate")
                continue
            assert not cert.certified
            kinds.add("isolation" if cert.copy_order_ok else "copy order")
        assert kinds == {"degenerate", "copy order", "isolation"}


class TestCopyMapMustDescribeReplica:
    @pytest.fixture(scope="class")
    def siblings(self):
        """The certified doubling of n9_cf2 (18 points) and its 14-point trim."""
        S = normalize_coordinates(load_bundled("n9_cf2")[0])
        eps = choose_epsilon(S, 2)
        return S, replicate_certified(S, 2, eps)[:2], replicate_certified(S, 2, eps, 14)[:2]

    def test_cluster_isolation(self, siblings):
        _, (S18, cmap18), (S14, cmap14) = siblings
        with pytest.raises(ValueError, match="copy map has 14 entries, replica has 18 points"):
            verify_cluster_isolation(S18, cmap14)
        with pytest.raises(ValueError, match="copy map has 18 entries, replica has 14 points"):
            verify_cluster_isolation(S14, cmap18)

    def test_copy_order(self, siblings):
        S, (S18, cmap18), (S14, cmap14) = siblings
        with pytest.raises(ValueError, match="copy map has 14 entries, replica has 18 points"):
            verify_copy_order(S, S18, cmap14)
        with pytest.raises(ValueError, match="copy map has 18 entries, replica has 14 points"):
            verify_copy_order(S, S14, cmap18)
        with pytest.raises(ValueError, match="copy map has 9 sources, source set has 8 points"):
            verify_copy_order(PointSet(S.points[:8]), S18, cmap18)
        assert verify_copy_order(S, S18, cmap18) and verify_copy_order(S, S14, cmap14)

    def test_contract_family(self, siblings):
        _, (S18, cmap18), (S14, cmap14) = siblings
        with pytest.raises(ValueError, match="copy map has 14 entries, replica has 18 points"):
            contract_family(S18, cmap14, [])
        with pytest.raises(ValueError, match="copy map has 18 entries, replica has 14 points"):
            contract_family(S14, cmap18, [])


QUAD = PointSet.from_coords([(0, 0), (7, 2), (3, 9), (10, 5)])


@pytest.mark.parametrize("S,m,eps,message", [
    (TRIANGLE, 2, Fraction(1, 4), "epsilon 1/4 makes points (0, 1, 2) collinear"),
    (QUAD, 2, Fraction(1), "epsilon 1 makes points (2, 3, 6) collinear"),
    (QUAD, 2, Fraction(1, 2), "epsilon 1/2 makes points (0, 1, 6) collinear"),
    (QUAD, 2, Fraction(3, 2), "epsilon 3/2 makes points (0, 3, 6) collinear"),
    (QUAD, 3, Fraction(1, 3), "epsilon 1/3 makes points (4, 5, 10) collinear"),
    (QUAD, 3, Fraction(1, 4), "epsilon 1/4 makes points (0, 2, 9) collinear"),
    (PointSet.from_coords([(0, 0), (1, 3)]), 2, 1, "epsilon 1 collides replica coordinates"),
])
def test_degenerate_epsilon_message(S, m, eps, message):
    with pytest.raises(DegenerateEpsilonError) as exc:
        replicate_certified(S, m, eps)
    assert str(exc.value) == message


class TestChooseEpsilon:
    def test_two_points(self):
        S = PointSet.from_coords([(0, 0), (10, 10)])
        eps = choose_epsilon(S, 2)
        S2, cmap, _ = replicate_certified(S, 2, eps)
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S, S2, cmap)

    def test_single_point(self):
        S = PointSet.from_coords([(3, 7)])
        eps = choose_epsilon(S, 3)
        S2, cmap, _ = replicate_certified(S, 3, eps)
        assert len(S2) == 3
        assert is_general_position(S2) and has_distinct_coordinates(S2)

    def test_deterministic(self):
        S = convex_position_points(5)
        assert choose_epsilon(S, 2) == choose_epsilon(S, 2)

    @pytest.mark.parametrize("S,m,error,message", [
        (convex_position_points(4), 0, ValueError, "copy count must be at least 1"),
        (PointSet.from_coords([(0, 0), (1, 1), (2, 2)]), 2, NotGeneralPositionError,
         "source set must be in general position"),
        (PointSet.from_coords([(0, 0), (0, 2), (2, 1)]), 2, ValueError,
         "source coordinates must be pairwise distinct"),
    ])
    def test_source_checked_before_the_search(self, S, m, error, message):
        for search in (lambda: choose_epsilon(S, m), lambda: replicate_certified(S, m)):
            with pytest.raises(error) as exc:
                search()
            assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("eps", [0, Fraction(-1, 2)])
    def test_spacing_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            replicate_certified(convex_position_points(4), 2, eps)

    @pytest.mark.parametrize("total", [8, 19])
    def test_total_must_fit_the_copies(self, total):
        S = normalize_coordinates(load_bundled("n9_cf2")[0])
        with pytest.raises(ValueError, match=rf"total must lie in \[9, 18\], got {total}"):
            replicate_certified(S, 2, Fraction(1, 16), total)

    @pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (3, 3)])
    def test_random_sets_certifiable(self, rng, n, m):
        S = normalize_coordinates(random_pointset(rng, n))
        eps = choose_epsilon(S, m)
        S2, cmap, _ = replicate_certified(S, m, eps)
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S, S2, cmap)


class TestContractFamily:
    def test_empty(self):
        S = convex_position_points(4)
        S2, cmap, _ = replicate_certified(S, 2, choose_epsilon(S, 2))
        assert contract_family(S2, cmap, []) == ()

    def test_segment_out_of_range(self):
        S = normalize_coordinates(load_bundled("n9_cf2")[0])
        S2, cmap, _ = replicate_certified(S, 2, Fraction(1, 16))
        with pytest.raises(ValueError, match="segment 0 18 out of range for 18 points"):
            contract_family(S2, cmap, [Segment(0, 18)])

    def test_m1_renaming(self):
        S = convex_position_points(4)
        S2, cmap, _ = replicate_certified(S, 1, Fraction(1, 2))
        fam = (Segment(0, 2), Segment(1, 3))
        assert contract_family(S2, cmap, fam) == fam

    def test_same_source_segment_rejected(self):
        S = convex_position_points(4)
        S2, cmap, _ = replicate_certified(S, 2, choose_epsilon(S, 2))
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
