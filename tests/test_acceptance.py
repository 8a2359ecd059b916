"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

import os
import random
import time
from math import comb

import pytest

import crossfam as cf
from crossfam.crossing import (
    brute_force_cf,
    count_k_families,
    has_k_family,
    max_crossing_family,
)
from crossfam.geometry import (
    PointSet,
    convex_position_points,
    normalize_coordinates,
)
from crossfam.known import best_known_upper_bound, known_bounds
from crossfam.replication import (
    contract_family,
    replicate_certified,
    verify_cluster_isolation,
    verify_copy_order,
)
from crossfam.sat import (
    assignment_from_pointset,
    emit_dimacs,
    encode_no_k_family,
    verify_assignment,
)
from crossfam.search import SearchConfig, anneal, random_general_position
from crossfam.store import load_bundled
from crossfam.thrackle import (
    GeometricGraph,
    has_even_cycle,
    is_forest,
    is_geometric_thrackle,
    star_polygon,
)
from conftest import random_pointset


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_equivalence():
    rng = random.Random(1001)
    t0 = time.monotonic()
    checked = 0
    for _ in range(200):
        n = rng.randint(4, 9)
        S = random_pointset(rng, n)
        solver_k, family = max_crossing_family(S)
        assert cf.is_crossing_family(S, family) and len(family) == solver_k
        assert solver_k == brute_force_cf(S), f"disagreement on {list(S)}"
        checked += 1
    elapsed = time.monotonic() - t0
    report(1, checked == 200 and elapsed < 60,
           f"{checked} random sets, solver == oracle, {elapsed:.1f}s < 60s")


def test_criterion_02_convex_position_law():
    worst = 0.0
    for n in range(4, 17):
        S = convex_position_points(n)
        t0 = time.monotonic()
        k, family = max_crossing_family(S)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert k == n // 2, f"cf(convex {n}-gon) = {k}"
        assert cf.is_crossing_family(S, family)
        assert dt < 1.0, f"n={n} took {dt:.2f}s"
        if n <= 9:
            assert brute_force_cf(S) == n // 2
    report(2, True, f"cf = floor(n/2) for n=4..16, worst case {worst:.3f}s < 1s")


def test_criterion_03_lower_bound_floor():
    rng = random.Random(1003)
    for _ in range(500):
        n = rng.randint(5, 9)
        S = random_pointset(rng, n)
        k, _ = max_crossing_family(S)
        assert k >= 2, f"cf = {k} on {n} points: {list(S)}"
    report(3, True, "500 random sets with n >= 5 all have cf >= 2")


@pytest.fixture(scope="module")
def replication_fixture_suite():
    """Certified m=2 replications of convex 4..7-gons plus 20 random sets."""
    rng = random.Random(1004)
    sources = [convex_position_points(n) for n in range(4, 8)]
    while len(sources) < 24:
        sources.append(random_pointset(rng, rng.randint(4, 7)))
    t0 = time.monotonic()
    cases = []
    for S in sources:
        S0 = normalize_coordinates(S)
        S2, cmap, cert = replicate_certified(S0, 2)
        k_src, _ = max_crossing_family(S0)
        k_rep, family = max_crossing_family(S2)
        cases.append((S0, S2, cmap, cert, k_src, k_rep, family))
    return cases, time.monotonic() - t0


def test_criterion_04_replication_factor_law(replication_fixture_suite):
    cases, build_time = replication_fixture_suite
    t0 = time.monotonic()
    for S0, S2, cmap, cert, k_src, k_rep, _ in cases:
        assert cert.certified
        assert verify_cluster_isolation(S2, cmap)
        assert verify_copy_order(S0, S2, cmap)
        assert k_rep <= 2 * k_src, f"cf jumped {k_src} -> {k_rep}"
    elapsed = build_time + time.monotonic() - t0
    report(4, elapsed < 300,
           f"24 certified doublings: checks hold, cf(S') <= 2*cf(S), {elapsed:.1f}s < 300s")


def test_criterion_05_contraction_structure(replication_fixture_suite):
    cases, _ = replication_fixture_suite
    examined = 0
    for S0, S2, cmap, cert, k_src, k_rep, family in cases:
        if k_rep <= 2:  # |F'| must exceed m = 2
            continue
        contracted = contract_family(S2, cmap, family)
        G = GeometricGraph(S0, frozenset(contracted))
        assert is_geometric_thrackle(G), f"not a thrackle: {contracted}"
        assert is_forest(G), f"not a forest: {contracted}"
        examined += 1
    report(5, examined > 0,
           f"{examined} contracted maximum families are thrackles and forests")


def test_criterion_06_thrackle_even_cycle_law():
    from test_thrackle import grow_random_thrackle

    rng = random.Random(1006)
    for _ in range(1000):
        S = random_pointset(rng, rng.randint(4, 8))
        G = grow_random_thrackle(S, rng)
        assert is_geometric_thrackle(G)
        assert not has_even_cycle(G), f"even cycle in thrackle {sorted(G.edges)}"
    for c in (3, 5, 7, 9):
        assert is_geometric_thrackle(star_polygon(c)), f"star polygon c={c}"
    report(6, True, "1000 sampled thrackles have no even cycle; odd star polygons pass")


def test_criterion_07_sat_encoding_soundness():
    rng = random.Random(1007)
    full_instance_checks = 0
    for _ in range(100):
        n = rng.randint(4, 9)
        S = normalize_coordinates(random_pointset(rng, n))
        cnf, vm = encode_no_k_family(n, 2)
        asg = assignment_from_pointset(S, vm)
        violated = verify_assignment(cnf, asg)
        g12 = cnf.sections[0] + cnf.sections[1]
        assert violated is None or violated >= g12, \
            f"axiom/crossing clause {violated} violated on {list(S)}"
        k_exact, _ = max_crossing_family(S)
        if k_exact < n // 2:
            k = k_exact + 1
            full_cnf, full_vm = encode_no_k_family(n, k)
            full_asg = assignment_from_pointset(S, full_vm)
            assert verify_assignment(full_cnf, full_asg) is None, \
                f"cf={k_exact} set violates encode({n},{k})"
            full_instance_checks += 1
    report(7, full_instance_checks > 0,
           f"100 sets satisfy axiom+crossing clauses; "
           f"{full_instance_checks} full instances satisfied when cf < k")


def test_criterion_08_instance_size_anchor(tmp_path):
    cnf, vm = encode_no_k_family(15, 4)
    assert vm.num_triple_vars == 455
    assert vm.num_pair_vars == 4095
    assert cnf.sections[2] == 675_675
    assert cnf.sections[2] == comb(15, 8) * 105
    path = tmp_path / "n15k4.cnf"
    emit_dimacs(cnf, path)
    size = os.path.getsize(path)
    ok = 16_000_000 <= size <= 66_000_000
    report(8, ok, f"encode(15,4): 455+4095 vars, 675675 family clauses, "
                  f"{size / 1e6:.1f} MB in [16, 66] MB")


def test_criterion_09_bound_calculator():
    assert best_known_upper_bound(41) == 8
    assert best_known_upper_bound(24) == 5
    lower, upper, _ = known_bounds(15)
    assert lower == upper == 4
    report(9, True, "bound(41)=8, bound(24)=5, known(15)=4 exactly")


def test_criterion_10_search_determinism_and_verification():
    t0 = time.monotonic()

    # fixed-seed runs are bit-identical and traces never increase
    cfg = SearchConfig(n=7, k=3, seed=77, iterations=3000)
    init = random_general_position(7, random.Random(77), cfg.grid_bound)
    state_a = anneal(cfg, init)
    state_b = anneal(cfg, init)
    assert state_a == state_b, "fixed-seed runs differ"
    bests = [row[3] for row in state_a.trace]
    assert all(x >= y for x, y in zip(bests, bests[1:])), "trace increased"

    # n=7, k=3 reaches objective 0 on at least one of 8 seeds
    reached = None
    for seed in range(8):
        run_cfg = SearchConfig(n=7, k=3, seed=seed, iterations=100_000)
        run_init = random_general_position(7, random.Random(seed), run_cfg.grid_bound)
        state = anneal(run_cfg, run_init)
        assert count_k_families(state.best, 3) == state.best_objective
        if state.best_objective == 0:
            reached = seed
            break
    assert reached is not None, "no seed reached objective 0"

    # a 41-point candidate (certified replication of the bundled 9-point
    # witness) is verified exactly, well within minutes
    S9, claimed = load_bundled("n9_cf2")
    S9 = normalize_coordinates(S9)
    S41, cmap, cert = replicate_certified(S9, 5, total=41)
    assert cert.certified and len(S41) == 41
    t_verify = time.monotonic()
    assert has_k_family(S41, claimed * 5 + 1) is None, "replication bound violated"
    verify_time = time.monotonic() - t_verify

    elapsed = time.monotonic() - t0
    ok = elapsed < 600 and verify_time < 600
    report(10, ok,
           f"bit-identical reruns; objective 0 at seed {reached}; 41-point "
           f"candidate has no {claimed * 5 + 1}-family ({verify_time:.1f}s); "
           f"total {elapsed:.1f}s < 600s")
