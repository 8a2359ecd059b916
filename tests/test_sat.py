import io
import random
from itertools import combinations
from math import comb

import pytest

from crossfam.crossing import max_crossing_family
from crossfam.errors import ParseError, SignotopeViolationError
from crossfam.geometry import (
    PointSet,
    all_segments,
    convex_position_points,
    normalize_coordinates,
    orientation,
    segments_cross,
)
from crossfam.sat import (
    Cnf,
    VarMap,
    assignment_from_pointset,
    decode_order_type,
    default_dimacs_comments,
    emit_dimacs,
    encode_no_k_family,
    parse_dimacs,
    parse_model,
    verify_assignment,
)
from crossfam.store import bundled_names, load_bundled
from conftest import NINE_POINT_CF2, random_pointset


def double_factorial(x):
    out = 1
    while x > 1:
        out *= x
        x -= 2
    return out


class TestVarMap:
    def test_triple_ids_dense_lexicographic(self):
        vm = VarMap(5)
        assert vm.triple_var(0, 1, 2) == 1
        assert vm.triple_var(0, 1, 3) == 2
        assert vm.triple_var(2, 3, 4) == comb(5, 3)

    def test_pair_ids_follow_triple_block(self):
        vm = VarMap(4)
        assert vm.pair_var((0, 1), (2, 3)) == 5
        assert vm.pair_var((0, 2), (1, 3)) == 6
        assert vm.pair_var((0, 3), (1, 2)) == 7
        assert vm.num_vars == 7

    def test_pair_var_order_insensitive(self):
        vm = VarMap(6)
        assert vm.pair_var((4, 5), (0, 2)) == vm.pair_var((0, 2), (4, 5))
        assert vm.pair_var((2, 0), (5, 4)) == vm.pair_var((0, 2), (4, 5))

    def test_sharing_segments_rejected(self):
        vm = VarMap(5)
        with pytest.raises(ValueError):
            vm.pair_var((0, 1), (1, 2))

    def test_triple_literal_parity(self):
        vm = VarMap(4)
        base = vm.triple_var(0, 1, 2)
        assert vm.triple_literal(0, 1, 2) == base
        assert vm.triple_literal(1, 0, 2) == -base
        assert vm.triple_literal(1, 2, 0) == base
        assert vm.triple_literal(2, 1, 0) == -base


class TestEncode:
    def test_smallest_instance(self):
        cnf, vm = encode_no_k_family(4, 2)
        assert vm.num_triple_vars == 4
        assert vm.num_pair_vars == 3
        assert cnf.sections == (8 * comb(4, 4), 24 * comb(4, 4), 3)
        family_clauses = cnf.clauses[-3:]
        assert all(len(c) == 1 and c[0] < 0 for c in family_clauses)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (9, 3), (12, 3), (16, 2), (16, 3)])
    def test_count_closed_forms(self, n, k):
        cnf, vm = encode_no_k_family(n, k)
        assert cnf.num_vars == comb(n, 3) + 3 * comb(n, 4)
        g1, g2, g3 = cnf.sections
        assert g1 == 8 * comb(n, 4)
        assert g2 == 24 * comb(n, 4)
        assert g3 == comb(n, 2 * k) * double_factorial(2 * k - 1)
        assert len(cnf.clauses) == g1 + g2 + g3

    def test_family_clause_width(self):
        cnf, _ = encode_no_k_family(8, 3)
        g12 = cnf.sections[0] + cnf.sections[1]
        assert all(len(c) == comb(3, 2) for c in cnf.clauses[g12:])

    def test_no_duplicate_literals_within_clauses(self):
        cnf, _ = encode_no_k_family(7, 3)
        for clause in cnf.clauses:
            assert len(set(map(abs, clause))) == len(clause)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            encode_no_k_family(5, 3)
        with pytest.raises(ValueError):
            encode_no_k_family(10, 1)

    def test_deterministic(self):
        a, _ = encode_no_k_family(7, 3)
        b, _ = encode_no_k_family(7, 3)
        assert a.clauses == b.clauses


class TestDimacs:
    def test_empty_clause_list(self):
        sink = io.BytesIO()
        emit_dimacs(Cnf(5, []), sink)
        assert sink.getvalue() == b"p cnf 5 0\n"

    def test_round_trip(self):
        cnf, vm = encode_no_k_family(5, 2)
        sink = io.BytesIO()
        emit_dimacs(cnf, sink, comments=default_dimacs_comments(vm, 2))
        back = parse_dimacs(sink.getvalue().decode())
        assert back.num_vars == cnf.num_vars
        assert back.clauses == cnf.clauses

    def test_byte_identical_across_invocations(self):
        first, second = io.BytesIO(), io.BytesIO()
        for sink in (first, second):
            cnf, vm = encode_no_k_family(6, 2)
            emit_dimacs(cnf, sink, comments=default_dimacs_comments(vm, 2))
        assert first.getvalue() == second.getvalue()

    def test_lf_line_endings(self):
        sink = io.BytesIO()
        cnf, _ = encode_no_k_family(4, 2)
        emit_dimacs(cnf, sink)
        assert b"\r" not in sink.getvalue()

    def test_file_output(self, tmp_path):
        cnf, _ = encode_no_k_family(4, 2)
        path = tmp_path / "out.cnf"
        emit_dimacs(cnf, path)
        assert parse_dimacs(path.read_text()).clauses == cnf.clauses


class TestAssignmentFromPointset:
    def test_realizable_sets_satisfy_axioms_and_crossing_clauses(self, rng):
        for _ in range(25):
            n = rng.randint(4, 9)
            S = normalize_coordinates(random_pointset(rng, n))
            cnf, vm = encode_no_k_family(n, 2)
            asg = assignment_from_pointset(S, vm)
            violated = verify_assignment(cnf, asg)
            g12 = cnf.sections[0] + cnf.sections[1]
            assert violated is None or violated >= g12

    def test_full_instance_satisfied_when_cf_below_k(self):
        S = PointSet.from_coords(NINE_POINT_CF2)
        assert max_crossing_family(S)[0] == 2
        cnf, vm = encode_no_k_family(9, 3)
        asg = assignment_from_pointset(S, vm)
        assert verify_assignment(cnf, asg) is None

    def test_convex_pentagon_violates_a_family_clause(self):
        S = convex_position_points(5)
        cnf, vm = encode_no_k_family(5, 2)
        asg = assignment_from_pointset(S, vm)
        violated = verify_assignment(cnf, asg)
        assert violated is not None
        assert violated >= cnf.sections[0] + cnf.sections[1]

    def test_flipping_any_pair_variable_breaks_a_crossing_clause(self, rng):
        S = normalize_coordinates(random_pointset(rng, 6))
        cnf, vm = encode_no_k_family(6, 2)
        asg = assignment_from_pointset(S, vm)
        g1 = cnf.sections[0]
        g12 = g1 + cnf.sections[1]
        for var in range(vm.num_triple_vars + 1, vm.num_vars + 1):
            flipped = list(asg)
            flipped[var] = not flipped[var]
            violated = verify_assignment(cnf, flipped)
            assert violated is not None and g1 <= violated < g12

    def test_unsorted_labels_are_relabeled_by_x(self):
        sorted_set = PointSet.from_coords([(0, 0), (1, 3), (2, 1), (3, 2)])
        shuffled = PointSet.from_coords([(3, 2), (0, 0), (2, 1), (1, 3)])
        vm = VarMap(4)
        assert assignment_from_pointset(sorted_set, vm) \
            == assignment_from_pointset(shuffled, vm)

    @pytest.mark.parametrize("name", bundled_names())
    def test_bundled_witnesses_match_pairwise_predicates(self, name):
        S = normalize_coordinates(load_bundled(name)[0])
        P = PointSet(tuple(sorted(S.points, key=lambda p: p.x)))
        vm = VarMap(len(P))
        expected = [False] * (vm.num_vars + 1)
        for a, b, c in combinations(range(len(P)), 3):
            expected[vm.triple_var(a, b, c)] = orientation(P[a], P[b], P[c]) > 0
        for s1, s2 in combinations(all_segments(len(P)), 2):
            if not s1.shares_endpoint(s2):
                expected[vm.pair_var(s1, s2)] = segments_cross(P, s1, s2)
        assert assignment_from_pointset(S, vm) == expected

    def test_duplicate_x_rejected(self):
        S = PointSet.from_coords([(0, 0), (0, 2), (2, 1), (3, 3)])
        vm = VarMap(4)
        with pytest.raises(ValueError):
            assignment_from_pointset(S, vm)


class TestVerifyAssignment:
    def test_satisfied_single_clause(self):
        assert verify_assignment(Cnf(1, [(1,)]), [False, True]) is None

    def test_violation_at_index_zero(self):
        assert verify_assignment(Cnf(1, [(1,)]), [False, False]) == 0

    def test_reports_first_violation(self):
        cnf = Cnf(2, [(1, 2), (-1,), (-2,)])
        assert verify_assignment(cnf, [False, True, True]) == 1

    def test_length_checked(self):
        with pytest.raises(ValueError):
            verify_assignment(Cnf(3, []), [False, True])


class TestDecodeOrderType:
    def test_convex_quad_uniform_signs(self):
        S = PointSet.from_coords([(0, 0), (1, -2), (2, -2), (3, 0)])
        vm = VarMap(4)
        asg = assignment_from_pointset(S, vm)
        triples = decode_order_type(asg, vm)
        assert len(triples) == 4
        assert {sign for _, _, _, sign in triples} == {1}

    def test_interior_point_signs_differ_only_on_its_triples(self):
        S = PointSet.from_coords([(0, 0), (1, 3), (2, 1), (3, 3), (4, 0)])
        vm = VarMap(5)
        triples = decode_order_type(assignment_from_pointset(S, vm), vm)
        interior = 2
        hull_signs = {sign for a, b, c, sign in triples if interior not in (a, b, c)}
        mixed_signs = {sign for a, b, c, sign in triples if interior in (a, b, c)}
        assert hull_signs == {-1}
        assert mixed_signs == {-1, 1}

    def test_non_signotope_rejected(self):
        vm = VarMap(4)
        # sequence (+, -, +, -) over the only 4-tuple
        asg = [False] * (vm.num_vars + 1)
        asg[vm.triple_var(0, 1, 2)] = True
        asg[vm.triple_var(0, 2, 3)] = True
        with pytest.raises(SignotopeViolationError):
            decode_order_type(asg, vm)


class TestParseModel:
    def test_plain_integers(self):
        asg = parse_model("1 -2 3", 3)
        assert asg[1:] == [True, False, True]

    def test_v_prefix_and_zero_terminator(self):
        asg = parse_model("c comment\ns SATISFIABLE\nv 1 -2\nv 3 0\nv junk-after-zero", 3)
        assert asg[1:] == [True, False, True]

    def test_missing_variable(self):
        with pytest.raises(ParseError):
            parse_model("1 -2", 3)

    def test_conflicting_literals(self):
        with pytest.raises(ParseError):
            parse_model("1 -1 2 3", 3)

    def test_non_integer_token(self):
        with pytest.raises(ParseError):
            parse_model("1 two 3", 3)


class TestSatisfiabilityWitness:
    def test_smallest_instance_satisfiable(self):
        # a triangle with an interior point spans no crossing pair at all
        from crossfam.store import load_bundled

        S, claimed = load_bundled("n4_cf1")
        assert claimed == 1
        cnf, vm = encode_no_k_family(4, 2)
        asg = assignment_from_pointset(normalize_coordinates(S), vm)
        assert verify_assignment(cnf, asg) is None

    def test_nine_points_witness_instance_satisfiable(self):
        # a realizable configuration without 3-crossing families satisfies
        # encode(9, 3), so the instance is satisfiable
        S = PointSet.from_coords(NINE_POINT_CF2)
        cnf, vm = encode_no_k_family(9, 3)
        asg = assignment_from_pointset(S, vm)
        assert verify_assignment(cnf, asg) is None
        listing = decode_order_type(asg, vm)
        assert len(listing) == comb(9, 3)
