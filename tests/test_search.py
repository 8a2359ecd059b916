import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossfam import search
from crossfam.chirotope import (
    _segment_offsets,
    crossing_rows,
    refresh_point_rows,
    segment_sides,
    side_masks,
    update_point_masks,
)
from crossfam.crossing import _count_cliques, count_k_families, max_crossing_family
from crossfam.errors import NotGeneralPositionError, RetryExhaustedError
from crossfam.formats import format_pointset
from crossfam.geometry import (
    PointSet,
    convex_position_points,
    is_general_position,
    normalize_coordinates,
    to_integer_coordinates,
)
from crossfam.search import (
    SearchConfig,
    _move,
    _objective_delta,
    anneal,
    perturb,
    random_general_position,
    seed_by_doubling,
)
from crossfam.store import bundled_names, load_bundled
from conftest import _count_kernel_calls, pairwise_rows


class TestSearchConfig:
    def test_grid_bound_defaults_to_n_squared(self):
        cfg = SearchConfig(n=7, k=3, seed=1, iterations=10)
        assert cfg.grid_bound == 49

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SearchConfig(n=5, k=3, seed=1, iterations=10)
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=3, seed=1, iterations=0)
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=3, seed=1, iterations=10, cooling_rate=1.0)
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=3, seed=1, iterations=10, grid_bound=10)

    @pytest.mark.parametrize("field, value", [
        ("k", True), ("seed", True), ("iterations", True), ("n", 8.0), ("seed", 1.5),
        ("step_sigma", True), ("grid_bound", 100.0), ("initial_temperature", Fraction(1, 2)),
    ])
    def test_value_the_config_format_cannot_read_back_rejected(self, field, value):
        # format_search_config would write True or 8.0, which parse_search_config rejects
        with pytest.raises(TypeError, match=f"^{field} must be"):
            SearchConfig(**{"n": 8, "k": 3, "seed": 0, "iterations": 10, field: value})

    @pytest.mark.parametrize("field, values", [
        ("seed", {"seed": 10 ** 5000}),
        ("iterations", {"iterations": 10 ** 4400}),
        ("grid_bound", {"n": 10 ** 2200}),  # the default grid bound n*n has 4,401 digits
    ])
    def test_int_the_config_format_cannot_write_rejected(self, field, values):
        with pytest.raises(ValueError, match=f"^{field} has too many digits"):
            SearchConfig(**{"n": 8, "k": 3, "seed": 0, "iterations": 10, **values})

    def test_int_in_a_float_field_must_be_exact_as_a_float(self):
        assert SearchConfig(n=8, k=3, seed=0, iterations=10, initial_temperature=2 ** 53)
        with pytest.raises(ValueError, match="initial_temperature"):
            SearchConfig(n=8, k=3, seed=0, iterations=10, initial_temperature=2 ** 53 + 1)

    @pytest.mark.parametrize("field", ["initial_temperature", "step_sigma"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_schedule_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(n=8, k=3, seed=1, iterations=10, **{field: value})

    @pytest.mark.parametrize("sigma", [0, -1.5])
    def test_non_positive_step_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="step sigma must be positive"):
            SearchConfig(n=8, k=3, seed=1, iterations=10, step_sigma=sigma)

    @pytest.mark.parametrize("sigma, grid_bound", [(100.5, 0), (1e200, 0), (30_000, 20_000)])
    def test_step_sigma_wider_than_the_grid_rejected(self, sigma, grid_bound):
        with pytest.raises(ValueError, match="step sigma must not exceed the grid bound"):
            SearchConfig(n=10, k=2, seed=0, iterations=10, step_sigma=sigma,
                         grid_bound=grid_bound)

    @pytest.mark.parametrize("sigma", [10_000.5, 50_000, 1e200])
    def test_step_sigma_above_the_draw_cap_rejected(self, sigma):
        with pytest.raises(ValueError, match="step sigma must not exceed 10000"):
            SearchConfig(n=10, k=2, seed=0, iterations=10, step_sigma=sigma,
                         grid_bound=10**201)

    def test_step_sigma_at_the_draw_cap_accepted(self):
        cfg = SearchConfig(n=10, k=2, seed=0, iterations=10, step_sigma=10_000,
                           grid_bound=1_000_000)
        assert cfg.step_sigma == 10_000

    def test_step_sigma_equal_to_the_grid_bound_accepted(self):
        assert SearchConfig(n=10, k=2, seed=0, iterations=10, step_sigma=100).step_sigma == 100


class TestPerturb:
    def test_sigma_zero_identity(self):
        S = convex_position_points(6)
        rng = random.Random(3)
        assert perturb(S, 0, rng) is S

    @pytest.mark.parametrize("sigma", [-2.0, -math.inf, math.inf, math.nan])
    def test_invalid_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be non-negative and finite"):
            perturb(convex_position_points(6), sigma, random.Random(0))

    @pytest.mark.parametrize("sigma", [10_000.5, 50_000.0])
    def test_sigma_above_the_draw_cap_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must not exceed 10000"):
            perturb(convex_position_points(6), sigma, random.Random(0))

    def test_deterministic_for_fixed_seed(self):
        S = convex_position_points(8)
        a = perturb(S, 2.0, random.Random(42))
        b = perturb(S, 2.0, random.Random(42))
        assert a == b

    def test_moves_exactly_one_point(self):
        S = convex_position_points(8)
        out = perturb(S, 2.0, random.Random(1))
        moved = [i for i in range(8) if out[i] != S[i]]
        assert len(moved) == 1

    def test_outputs_stay_general_position(self):
        rng = random.Random(5)
        S = random_general_position(10, rng, 100)
        for _ in range(1000):
            S = perturb(S, 3.0, rng, grid_bound=100)
            assert is_general_position(S)

    def test_clamped_to_grid(self):
        S = PointSet.from_coords([(0, 0), (5, 0), (0, 5)])
        rng = random.Random(0)
        for _ in range(100):
            out = perturb(S, 50.0, rng, grid_bound=6)
            for p in out:
                assert -6 <= p.x <= 6 and -6 <= p.y <= 6

    def test_rejects_rational_coordinates(self):
        from fractions import Fraction

        S = PointSet.from_coords([(Fraction(1, 2), 0), (1, 1), (2, 0)])
        with pytest.raises(ValueError):
            perturb(S, 1.0, random.Random(0))

    # SHA-256 of perturb's results and the generator's next draw, recorded
    # before perturb and anneal shared one move proposal: its draws, retries
    # and failures must stay bit-identical.
    @staticmethod
    def _chained():
        rng = random.Random(5)
        chain = [random_general_position(10, rng, 100)]
        for _ in range(500):
            chain.append(perturb(chain[-1], 3.0, rng, grid_bound=100))
        return chain, rng.random()

    @staticmethod
    def _clamped():
        rng = random.Random(0)
        S = PointSet.from_coords([(0, 0), (5, 0), (0, 5)])
        return [perturb(S, 50.0, rng, grid_bound=6) for _ in range(100)], rng.random()

    @staticmethod
    def _exhausted():
        rng = random.Random(10)
        S = PointSet.from_coords([(-1, -1), (1, -1), (1, 1), (-1, 1), (0, 2)])
        with pytest.raises(RetryExhaustedError) as err:
            perturb(S, 1.0, rng, grid_bound=2, max_retries=3)
        return str(err.value), rng.random()

    @pytest.mark.parametrize("case, digest", [
        ("_chained", "70f96d84c856b8b1c3d27ebb1a465e0e8b0454211d5a9232358d86e39d451718"),
        ("_clamped", "9114152c5492144ac79d11230b9ebbe915183135f51d7a4d44a7c5f0166ca2ab"),
        ("_exhausted", "75e4e81ba41617e4aec6f9d8ec53d38031ff9634364b9625836bd0e633344d0e"),
    ])
    def test_golden_moves(self, case, digest):
        record = getattr(self, case)()
        assert hashlib.sha256(repr(record).encode()).hexdigest() == digest

    def test_two_points_never_coincide(self):
        rng = random.Random(0)
        S = PointSet.from_coords([(0, 0), (1, 0)])
        for _ in range(200):
            S = perturb(S, 1.0, rng, grid_bound=1)
            assert S[0] != S[1]

    def test_retry_exhaustion_on_tiny_grid(self):
        # ten distinct points cannot fit the nine cells of a [-1, 1]^2 grid
        with pytest.raises(RetryExhaustedError):
            random_general_position(10, random.Random(2), 1)


class TestAnneal:
    def test_zero_objective_initial_returns_immediately(self):
        from conftest import NINE_POINT_CF2

        flat = PointSet.from_coords(NINE_POINT_CF2[:6])
        assert count_k_families(flat, 3) == 0
        cfg = SearchConfig(n=6, k=3, seed=9, iterations=500)
        state = anneal(cfg, flat)
        assert state.best == flat
        assert len(state.trace) == 1

    def test_reproducible_bit_for_bit(self):
        cfg = SearchConfig(n=7, k=3, seed=123, iterations=2000)
        init = random_general_position(7, random.Random(123), cfg.grid_bound)
        a = anneal(cfg, init)
        b = anneal(cfg, init)
        assert a == b

    def test_trace_best_non_increasing(self):
        cfg = SearchConfig(n=8, k=3, seed=5, iterations=3000)
        init = random_general_position(8, random.Random(5), cfg.grid_bound)
        state = anneal(cfg, init)
        bests = [row[3] for row in state.trace]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    @pytest.mark.parametrize("coords,message", [
        ([(0, 0), (Fraction(1, 2), 3), (4, 1), (2, 5)],
         "initial set must have integer coordinates"),
        ([(0, 0), (1, 1), (2, 2), (0, 3)], "initial set must be in general position"),
    ])
    def test_initial_set_checked(self, coords, message):
        with pytest.raises(ValueError, match=message):
            anneal(SearchConfig(n=4, k=2, seed=0, iterations=10), PointSet.from_coords(coords))

    def test_final_recount_catches_a_drifted_objective(self, monkeypatch):
        # far fewer iterations than the drift guard's interval
        monkeypatch.setattr(search, "_objective_delta", lambda adj, changed, k: -1)
        cfg = SearchConfig(n=7, k=2, seed=1, iterations=50)
        init = random_general_position(7, random.Random(1), cfg.grid_bound)
        with pytest.raises(AssertionError, match="objective bookkeeping drifted"):
            anneal(cfg, init)

    def test_best_objective_consistent_with_recount(self):
        cfg = SearchConfig(n=7, k=3, seed=11, iterations=2000)
        init = random_general_position(7, random.Random(11), cfg.grid_bound)
        state = anneal(cfg, init)
        assert count_k_families(state.best, cfg.k) == state.best_objective

    def test_states_stay_general_position(self):
        cfg = SearchConfig(n=7, k=3, seed=2, iterations=1500)
        init = random_general_position(7, random.Random(2), cfg.grid_bound)
        state = anneal(cfg, init)
        assert is_general_position(state.current)
        assert is_general_position(state.best)

    def test_seven_points_reach_zero(self):
        for seed in range(4):
            cfg = SearchConfig(n=7, k=3, seed=seed, iterations=100_000)
            init = random_general_position(7, random.Random(seed), cfg.grid_bound)
            if anneal(cfg, init).best_objective == 0:
                return
        pytest.fail("no seed reached a 7-point set without 3-crossing families")

    def test_nine_points_improve_on_convex_start(self):
        # a convex 9-gon holds one 3-family per 6-subset: C(9,6) = 84
        start = convex_position_points(9)
        assert count_k_families(start, 3) == 84
        cfg = SearchConfig(n=9, k=3, seed=31, iterations=20_000)
        state = anneal(cfg, start)
        assert state.best_objective < 84

    def test_wrong_size_initial_rejected(self):
        cfg = SearchConfig(n=7, k=3, seed=0, iterations=10)
        with pytest.raises(ValueError):
            anneal(cfg, convex_position_points(6))

    def test_initial_outside_grid_rejected(self):
        from conftest import NINE_POINT_CF2

        scaled = PointSet.from_coords((1000 * x, 1000 * y) for x, y in NINE_POINT_CF2)
        cfg = SearchConfig(n=9, k=2, seed=0, iterations=10)
        with pytest.raises(ValueError, match="outside the grid"):
            anneal(cfg, scaled)
        wide = SearchConfig(n=9, k=2, seed=0, iterations=10, grid_bound=77_000)
        assert len(anneal(wide, scaled).trace) == 11

    @pytest.mark.parametrize("target, before", [
        ("refresh_point_rows", True),
        ("point_masks", True),  # the moved point is written, its masks not yet read
        ("point_masks", False),  # inside _move, the masks read but not yet returned
        ("_objective_delta", True),
    ])
    @pytest.mark.parametrize("calls", [1, 2, 3, 5, 8, 13, 21])
    def test_interrupt_undoes_the_pending_move(self, monkeypatch, calls, target, before):
        cfg = SearchConfig(n=12, k=3, seed=4, iterations=300)
        initial = random_general_position(12, random.Random(4), cfg.grid_bound)
        uninterrupted = anneal(cfg, initial)
        real = getattr(search, target)
        seen = 0

        def interrupted(*args):
            nonlocal seen
            seen += 1
            if seen != calls:
                return real(*args)
            if not before:
                real(*args)
            raise KeyboardInterrupt

        monkeypatch.setattr(search, target, interrupted)
        state = anneal(cfg, initial)
        assert seen == calls
        assert state.trace == uninterrupted.trace[:len(state.trace)]
        assert count_k_families(state.current, cfg.k) == state.trace[-1][2]
        assert count_k_families(state.best, cfg.k) == state.best_objective

    def test_drift_guard_on_every_iteration(self, monkeypatch, kernel_passes, row_builds):
        cfg = SearchConfig(n=12, k=3, seed=4, iterations=300)
        initial = random_general_position(12, random.Random(4), cfg.grid_bound)
        unguarded = anneal(cfg, initial)
        kernel_passes.clear()
        row_builds.clear()
        monkeypatch.setattr(search, "_CHECK_INTERVAL", 1)
        # a fresh set, whose tables are not yet kept
        assert anneal(cfg, PointSet(initial.points)) == unguarded
        # one full state at the start, one per iteration, then the final recount
        assert len(unguarded.trace) == 301
        assert len(kernel_passes) == 302
        assert row_builds == [12] * 302

    def test_one_segment_sides_pass_per_state(self, monkeypatch, kernel_passes, row_builds):
        sides_passes = _count_kernel_calls(monkeypatch, "segment_sides", lambda left, n: n)
        S = random_general_position(16, random.Random(16), 256)
        left, sides, adj, count = search._state(S, 4)
        assert sides_passes == [16] and row_builds == [16] and len(kernel_passes) == 1
        assert sides == segment_sides(left, 16) and adj == crossing_rows(left, 16)
        assert count == _count_cliques(adj, 4)
        # one pass for the start state, one per drift guard, on every
        # iteration here, and one for the rows of the final recount
        sides_passes.clear()
        monkeypatch.setattr(search, "_CHECK_INTERVAL", 1)
        cfg = SearchConfig(n=12, k=3, seed=4, iterations=30)
        state = anneal(cfg, random_general_position(12, random.Random(4), cfg.grid_bound))
        assert len(state.trace) == 31 and sides_passes == [12] * 32

    def test_drift_guard_checks_the_kept_sides(self, monkeypatch):
        # Bits of sides[p] on segments through p are never read by a row, so
        # setting one leaves every row and objective right: only the guard's
        # comparison with a fresh segment_sides can see it.
        cfg = SearchConfig(n=12, k=3, seed=4, iterations=300)
        initial = random_general_position(12, random.Random(4), cfg.grid_bound)

        def corrupting_update(left, sides, p, masks):
            update_point_masks(left, sides, p, masks)
            a, b = (0, p) if p else (0, 1)
            sides[p] |= 1 << (_segment_offsets(12)[a] + b)

        monkeypatch.setattr(search, "update_point_masks", corrupting_update)
        monkeypatch.setattr(search, "_CHECK_INTERVAL", 1)
        with pytest.raises(AssertionError, match="drifted"):
            anneal(cfg, initial)

    # SHA-256 of (initial, trace, best, current, best objective) for fixed
    # seeds: changes to the incremental updates must keep every run
    # bit-identical. 5000 iterations pass the drift guard at 4096.
    @pytest.mark.parametrize("n, k, seed, iterations, digest", [
        (20, 1, 3, 150, "6a18bc9c6dd23dc9ecbdf60091490e5ec94db5a67e8e1ed42b1e335076467ec9"),
        (20, 5, 7, 150, "78ea1218e1989515e6512d5aa5a5dc6686e35078c025d7d312a7375c1bdb20e3"),
        (8, 3, 1, 300, "bb17a5fd1a011866fd033f3943d5199e1fef2f1ea78ec35ce279cd75e4aa6fdf"),
        (12, 3, 5, 150, "d36b40e2129c314711165cad748d2d88257d780f9b3bbb8572d171d444faebbf"),
        (16, 4, 11, 40, "6d870e08c3275826c7525788d4f1325a456e08f5655b69c5ba510231efbd46f3"),
        (9, 2, 4, 5000, "839ad908e7d4b67c297079ce89bdc608be06e8b1c5e71a785e3c621d78db9473"),
    ])
    def test_golden_traces(self, n, k, seed, iterations, digest):
        cfg = SearchConfig(n=n, k=k, seed=seed, iterations=iterations)
        initial = random_general_position(n, random.Random(seed + 1000), cfg.grid_bound)
        state = anneal(cfg, initial)
        record = (initial, state.trace, state.best, state.current, state.best_objective)
        assert hashlib.sha256(repr(record).encode()).hexdigest() == digest


grid_sets = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=4, max_size=12, unique=True
)


@settings(max_examples=150, deadline=None)
@given(grid_sets, st.integers(2, 4), st.integers(0, 2 ** 32))
def test_objective_delta_matches_full_recount(coords, k, seed):
    try:
        left = side_masks(coords)
    except NotGeneralPositionError:
        assume(False)
    n = len(coords)
    sides = segment_sides(left, n)
    old_rows = crossing_rows(left, n)
    new_rows = old_rows.copy()
    moved, masks = _move(coords, random.Random(seed), 8.0, 30, 100)
    update_point_masks(left, sides, moved, masks)
    assert left == side_masks(coords)
    assert sides == segment_sides(left, n)
    changed = refresh_point_rows(new_rows, left, sides, n, moved)
    assert new_rows == crossing_rows(left, n)
    assert new_rows == pairwise_rows(PointSet.from_coords(coords))
    assert _objective_delta(new_rows, changed, k) \
        == _count_cliques(new_rows, k) - _count_cliques(old_rows, k)


class TestSeedByDoubling:
    #: SHA-256 of format_pointset(seed_by_doubling(S, m)) for m = 1, 2, 3
    GOLDEN = {
        "n4_cf1": ("2f4cddbb9392796f39d4ed8c5c5f2cd172ecf30be48d28c29fa8686af2451717",
                   "0cc1c94f88698485f11fdb608a7e7f53d228206e65061b0ca4b24705b6ea55ce",
                   "a0ef715c2820f7c1772cc00511c0da75f71a64e06bf10c82589057dd43d5c2dd"),
        "n9_cf2": ("8e981306f052e45db71ffd85a2506f0763d557bcf548094fe194c2db54f71d50",
                   "0d4ba888747cbcf14edf47c1d0c030a06b76afdce128cd9a4e3d51dbaf810410",
                   "58db69bfb02f5eaa25fb0bbbaa22525beca0976291849fcde8027a7f6c14521b"),
        "n14_cf3": ("4ea8a94dabf2fbe41a10ef04622ee1454e94b90289bc56c416c36035a0f7d04f",
                    "abed816a034ce87037aff7608268f8848ba87a424d0d194a40b2cc5f3daa0eab",
                    "761f5cce09be155e978d96bab4807acb469cf88240ce0ce1259d4a40768988a0"),
        "n20_cf4": ("11d50bc91b6178e562004a096d9b070875ddf68a5e86e1bd479f4a21b346c102",
                    "aaa137d242fe4ae381a9206b943b9086cb10bbe50a98bde360c17efd31fba925",
                    "8bc8da6c9e48559eed294ff0c440ec5205afd1ebaa8013ca68313b7ec5503b3c"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bundled_seeds(self, name):
        assert set(self.GOLDEN) == set(bundled_names())
        S = load_bundled(name)[0]
        digests = tuple(hashlib.sha256(format_pointset(seed_by_doubling(S, m)).encode()).hexdigest()
                        for m in (1, 2, 3))
        assert digests == self.GOLDEN[name]

    def test_m1_is_normalization(self):
        S = PointSet.from_coords([(0, 0), (0, 2), (2, 1)])
        assert seed_by_doubling(S, 1) == normalize_coordinates(S)

    def test_doubled_pentagon_bound(self):
        S2 = seed_by_doubling(convex_position_points(5), 2)
        assert len(S2) == 10
        assert max_crossing_family(S2)[0] <= 4

    def test_integer_grid_conversion_feeds_anneal(self):
        S2 = to_integer_coordinates(seed_by_doubling(convex_position_points(4), 2))
        assert max_crossing_family(S2)[0] <= 2 * 2
        assert all(isinstance(p.x, int) and isinstance(p.y, int) for p in S2)


class TestRandomGeneralPosition:
    def test_respects_bound_and_position(self):
        rng = random.Random(7)
        S = random_general_position(12, rng, 144)
        assert len(S) == 12
        assert is_general_position(S)
        assert all(-144 <= p.x <= 144 and -144 <= p.y <= 144 for p in S)

    def test_deterministic(self):
        assert random_general_position(9, random.Random(3), 81) \
            == random_general_position(9, random.Random(3), 81)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            random_general_position(3, random.Random(0), 0)
