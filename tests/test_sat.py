import hashlib
import io
import os
import random
import re
import stat
import threading
import tracemalloc
from itertools import accumulate, combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam import sat
from crossfam.crossing import max_crossing_family
from crossfam.errors import NotGeneralPositionError, ParseError, SignotopeViolationError
from crossfam.geometry import (
    PointSet,
    all_segments,
    convex_position_points,
    normalize_coordinates,
    orientation,
    segments_cross,
)
from crossfam.sat import (
    _CROSSING_LITERALS,
    _EMIT_CHUNK,
    _PAIRING_POSITIONS,
    Cnf,
    _lines,
    VarMap,
    assignment_from_pointset,
    decode_order_type,
    default_dimacs_comments,
    emit_dimacs,
    encode_no_k_family,
    parse_dimacs,
    parse_model,
    read_dimacs,
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
    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="need at least 3 points for orientation variables"):
            VarMap(2)

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

    @pytest.mark.parametrize("call, message", [
        (lambda vm: vm.triple_var(0, 0, 1), r"^triple \(0, 0, 1\) is not a < b < c$"),
        (lambda vm: vm.triple_var(2, 1, 0), r"^triple \(2, 1, 0\) is not a < b < c$"),
        (lambda vm: vm.triple_var(0, 1, 9), "^label 9 out of range for 6 points$"),
        (lambda vm: vm.triple_literal(0, 0, 1), r"^triple \(0, 0, 1\) repeats a label$"),
        (lambda vm: vm.triple_literal(6, 0, 1), "^label 6 out of range for 6 points$"),
        (lambda vm: vm.pair_var((0, 1), (2, 99)), "^label 99 out of range for 6 points$"),
        (lambda vm: vm.pair_var((-1, 1), (2, 3)), "^label -1 out of range for 6 points$"),
        (lambda vm: vm.pair_var((0, 1), (1, 2)), r"^segments \(0,1\) and \(1,2\) are not disjoint$"),
    ])
    def test_bad_labels_name_the_problem(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(VarMap(6))

    @pytest.mark.parametrize("quad", [(0, 1, 2, 3), (1, 3, 4, 7)])
    def test_crossing_literals_follow_the_parity_rule(self, quad):
        vm = VarMap(8)
        s = [vm.triple_var(*t) for t in combinations(quad, 3)]
        for ((i, j), (l, m)), signs in zip(_PAIRING_POSITIONS, _CROSSING_LITERALS):
            a, b, c, d = quad[i], quad[j], quad[l], quad[m]
            expected = [vm.triple_literal(*t) for t in ((a, b, c), (a, b, d), (c, d, a), (c, d, b))]
            assert [s[p - 1] if p > 0 else -s[-p - 1] for p in signs] == expected

    @pytest.mark.parametrize("n", range(4, 9))
    def test_pair_ids_biject_onto_the_pair_block(self, n):
        vm = VarMap(n)
        segments = list(combinations(range(n), 2))
        ids = [vm.pair_var(s, t) for s, t in combinations(segments, 2) if not set(s) & set(t)]
        assert sorted(ids) == list(range(vm.num_triple_vars + 1, vm.num_vars + 1))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_pair_id_of_jth_pairing_of_ith_quad(self, n):
        vm = VarMap(n)
        for i, quad in enumerate(combinations(range(n), 4)):
            for j, ((a, b), (c, d)) in enumerate(_PAIRING_POSITIONS):
                pair = (quad[a], quad[b]), (quad[c], quad[d])
                assert vm.pair_var(*pair) == comb(n, 3) + 3 * i + j + 1


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

    @pytest.mark.parametrize("text, error", [
        ("p cnf 10 1\n1_0 -2 0\n", "line 2: bad literal '1_0'"),
        ("p cnf 10 1\n1 -\u0663 0\n", "line 2: bad literal '-\u0663'"),
        ("p cnf 1_0 1\n1 0\n", "line 1: bad variable count '1_0'"),
        ("p cnf 3 \u0663\n1 0\n", "line 1: bad clause count '\u0663'"),
    ])
    def test_python_only_integer_syntax(self, text, error):
        with pytest.raises(ParseError) as excinfo:
            parse_dimacs(text)
        assert str(excinfo.value) == error

    def test_file_output(self, tmp_path):
        cnf, _ = encode_no_k_family(4, 2)
        path = tmp_path / "out.cnf"
        emit_dimacs(cnf, path)
        assert parse_dimacs(path.read_text()).clauses == cnf.clauses

    # (sections, SHA-256 of the DIMACS bytes with the default comments),
    # recorded before emission and family encoding became table-driven
    GOLDEN = {
        (4, 2): ((8, 24, 3), "bfe64c9710441789d38dc92adeb16864ea2cd5dfde7d7f260dde428b1417137b"),
        (6, 3): ((120, 360, 15), "886c24fd8661bd9c65449f97fad90ff1757bf6acc95a1e672f94e0ce8e3a2b2b"),
        (9, 3): ((1008, 3024, 1260), "de88e771d12703c3ea62df27aae67fcf1b26f4650bfc703dc68df0559c50c4ff"),
        (10, 4): ((1680, 5040, 4725), "672e2a5d8ff601e4cf4ecd45ae03a0b5d6971acda9cf7f10b07efb63bd148ea0"),
        (13, 4): ((5720, 17160, 135135), "403660b7287f1ded7f0e831e7ebaef9680734923c9f2d4e97f6167f68bdc6729"),
    }

    @pytest.mark.parametrize("n,k", sorted(GOLDEN))
    def test_golden_bytes(self, n, k):
        cnf, vm = encode_no_k_family(n, k)
        sink = io.BytesIO()
        emit_dimacs(cnf, sink, comments=default_dimacs_comments(vm, k))
        sections, digest = self.GOLDEN[(n, k)]
        assert cnf.sections == sections
        assert hashlib.sha256(sink.getvalue()).hexdigest() == digest
        assert parse_dimacs(sink.getvalue().decode("ascii")).clauses == cnf.clauses

    def test_empty_and_mixed_width_clauses(self):
        sink = io.BytesIO()
        emit_dimacs(Cnf(3, [(1,), (), (-2, 3), (), ()]), sink, comments=["x"])
        assert sink.getvalue() == b"c x\np cnf 3 5\n1 0\n 0\n-2 3 0\n 0\n 0\n"

    def test_multi_line_comments_round_trip(self):
        # every line break the reader splits on starts a new comment line
        sink = io.BytesIO()
        emit_dimacs(Cnf(2, [(1, -2)]), sink, comments=["two\nlines", "cr\rvt\x0bfs\x1cend", "one"])
        assert sink.getvalue() == (b"c two\nc lines\nc cr\nc vt\nc fs\nc end\nc one\n"
                                   b"p cnf 2 1\n1 -2 0\n")
        assert parse_dimacs(sink.getvalue().decode("ascii")).clauses == [(1, -2)]

    @pytest.mark.parametrize("text,message", [
        ("p cnf -2 0\n", "line 1: negative variable count -2"),
        ("c x\np cnf 2 -1\n", "line 2: negative clause count -1"),
        ("p cnf 2 1\n1 0\np cnf 2 1\n", "line 3: second problem line"),
        ("p cnf 2 1\np cnf 2\n1 0\n", "line 2: second problem line"),
    ])
    def test_bad_problem_lines_rejected(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            parse_dimacs(text)
        assert str(excinfo.value) == message

    def test_interrupted_file_output_keeps_previous_file(self, tmp_path):
        class Interrupt:
            def __index__(self):
                raise KeyboardInterrupt

        path = tmp_path / "out.cnf"
        path.write_bytes(b"previous\n")
        # the first chunk is written before the bad literal is reached
        clauses = [(1, -2)] * (_EMIT_CHUNK + 5) + [(Interrupt(),)]
        with pytest.raises(KeyboardInterrupt):
            emit_dimacs(Cnf(2, clauses), path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.cnf"]

    def test_file_output_replaces_previous_file(self, tmp_path):
        path = tmp_path / "out.cnf"
        path.write_bytes(b"previous\n" * 1000)
        emit_dimacs(Cnf(2, [(1, -2)]), path)
        assert path.read_bytes() == b"p cnf 2 1\n1 -2 0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.cnf"]

    def test_file_output_writes_through_symlink(self, tmp_path):
        target = tmp_path / "target.cnf"
        target.write_bytes(b"previous\n")
        link = tmp_path / "link.cnf"
        link.symlink_to(target)
        emit_dimacs(Cnf(2, [(1, -2)]), link)
        assert link.is_symlink()
        assert target.read_bytes() == b"p cnf 2 1\n1 -2 0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.cnf", "target.cnf"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_output_written_directly(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        emit_dimacs(Cnf(2, [(1, -2)]), fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"p cnf 2 1\n1 -2 0\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def _reference_int(tok, what, lineno):
    """``tok`` as an integer when it is ``[+-]?[0-9]+``, else a ``ParseError``."""
    if re.fullmatch(r"[+-]?[0-9]+", tok, re.ASCII) is None:
        raise ParseError(f"bad {what} {tok!r}", lineno)
    return int(tok)


def reference_parse_dimacs(text):
    """Token-by-token DIMACS reader that ``parse_dimacs`` must agree with."""
    num_vars = declared = None
    clauses, pending = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError("second problem line", lineno)
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"bad problem line {line!r}", lineno)
            num_vars = _reference_int(fields[2], "variable count", lineno)
            declared = _reference_int(fields[3], "clause count", lineno)
            if num_vars < 0:
                raise ParseError(f"negative variable count {num_vars}", lineno)
            if declared < 0:
                raise ParseError(f"negative clause count {declared}", lineno)
            continue
        if num_vars is None:
            raise ParseError("clause before problem line", lineno)
        for tok in line.split():
            lit = _reference_int(tok, "literal", lineno)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            elif abs(lit) > num_vars:
                raise ParseError(f"literal {lit} exceeds {num_vars} variables", lineno)
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if num_vars is None:
        raise ParseError("missing problem line")
    if declared is not None and declared != len(clauses):
        raise ParseError(f"expected {declared} clauses, found {len(clauses)}")
    return Cnf(num_vars, clauses)


def _outcome(parse, text):
    try:
        cnf = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", cnf.num_vars, cnf.clauses)


@st.composite
def cnfs(draw):
    num_vars = draw(st.integers(1, 12))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, max_size=6).map(tuple), max_size=40))
    return Cnf(num_vars, clauses)


@st.composite
def dimacs_texts(draw):
    """DIMACS-like text: mostly well formed, with the variations a reader meets."""
    num_vars = draw(st.integers(1, 9))
    token = st.one_of(
        st.integers(-num_vars, num_vars).map(str),                     # in range, or 0
        st.sampled_from(["+3", "03", "-03", "+0", "00", "-0", "1_0"]),  # non-canonical
        st.integers(num_vars + 1, 99).map(lambda v: str(v if v % 2 else -v)),  # out of range
        st.sampled_from(["x", "1.5", "--1", "\u0663", "1\u0663"]),         # not an integer
    )
    clause_line = st.lists(token, max_size=7).map(lambda toks: toks + ["0"])
    free_line = st.lists(token, max_size=7)
    comment = st.sampled_from(["c", "c 1 2 0", "c p cnf 9 9", "cnf 1 0"])
    body = draw(st.lists(st.one_of(clause_line, clause_line, free_line,
                                   comment.map(lambda c: [c]), st.just([])),
                         max_size=12))
    count = draw(st.sampled_from(["exact", "off", "bad", "negative"]))
    declared = len(body) if count == "exact" else draw(st.integers(0, 15))
    if count == "negative":
        declared = -1 - declared
    header = ["p", "cnf", str(num_vars), str(declared) if count != "bad" else "x"]
    lines = [header] + body
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), ["c", "comment"])
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), ["p", "cnf", str(num_vars)])
    if draw(st.booleans()):
        # long enough for the parser to tabulate every literal up front
        lines.insert(draw(st.integers(0, len(lines))), ["c", "." * 640])
    sep = st.sampled_from([" ", "  ", "\t", " \t"])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    rendered = []
    for toks in lines:
        pad = draw(st.sampled_from(["", " ", "\t"]))
        rendered.append(pad + "".join(t + draw(sep) for t in toks[:-1]) + "".join(toks[-1:]))
    return eol.join(rendered) + draw(st.sampled_from(["", eol]))


class TestDimacsProperties:
    @settings(max_examples=300, deadline=None)
    @given(cnfs())
    def test_emit_parse_round_trip(self, cnf):
        sink = io.BytesIO()
        emit_dimacs(cnf, sink)
        back = parse_dimacs(sink.getvalue().decode("ascii"))
        assert back.num_vars == cnf.num_vars
        assert back.clauses == cnf.clauses

    @settings(max_examples=1000, deadline=None)
    @given(dimacs_texts())
    def test_parse_agrees_with_reference(self, text):
        assert _outcome(parse_dimacs, text) == _outcome(reference_parse_dimacs, text)

    @pytest.mark.parametrize("text", [
        "p cnf 3 2\n1 -2 0 3\n0\n",           # clause spanning lines
        "p cnf 3 3\n1 0 -2 0 3 0\n",           # several clauses on a line
        "p cnf 3 2\n1 0\nc note\n2 0\n",      # comment between clauses
        "p cnf 3 2\r\n+3 0\r\n03\t-1 0\r\n",  # non-canonical tokens, CRLF, tab
        "p cnf 3 1\n1 4 0\n",                 # literal out of range
        "p cnf 3 2\n1 0\n",                   # wrong declared count
        "p cnf 3 1\n1 x 0\n",                 # non-integer literal
        "p cnf x 1\n1 0\n",                   # non-integer problem field
        "p cnf 10 1\n1_0 -2 0\n",             # Python-only integer syntax
        "p cnf 10 1\n1 -\u0663 0\n",
        "p cnf 1_0 1\n1 0\n",
        "p cnf 3 \u0663\n1 0\n",
        "0\np cnf 3 1\n",                     # clause before the problem line
        # a second problem line is rejected, also after a fully tabulated first one
        "p cnf 3 2\nc " + "." * 256 + "\n3 0\np cnf 1 1\n3 0\n",
        "p cnf 3 1\np cnf 3 1\n1 0\n",
        "p cnf -2 0\n",                       # negative variable count
        "p cnf 2 -1\n",                       # negative clause count
    ])
    def test_parse_agrees_with_reference_on_edge_cases(self, text):
        assert _outcome(parse_dimacs, text) == _outcome(reference_parse_dimacs, text)


# line breaks of str.splitlines, alone and as \r\n, and whitespace that is
# not a line break (\xa0), in DIMACS-shaped texts
_READER_TEXTS = [
    "",
    "\n",
    "p cnf 3 2\n1 -2 0\n3 0",                       # no trailing newline
    "p cnf 3 2\r\n1 -2 0\r\n3 0\r\n",
    "p cnf 3 2\r1 -2 0\r3 0\r",                    # lone \r
    "p cnf 3 2\x0b1 -2 0\x1c3 0\x0c",
    "p cnf 3 2\x851 -2 0\u20283 0\u2029",
    "p cnf 3 1\n1\xa0-2 0\n",
    "c x\r\r\n\n\rp cnf 1 1\n\r\n1 0\n\n",
    "p cnf 9 1\n" + " ".join(map(str, range(1, 10))) + " 0\n",  # a line longer than a slice
    "p cnf 2 1\n1 x 0\n",
    "1 0\np cnf 1 1\n",
]


class TestLineReader:
    @pytest.mark.parametrize("size", [1, 2, 7])
    @pytest.mark.parametrize("text", _READER_TEXTS)
    def test_slices_give_the_lines_of_splitlines(self, size, text):
        with mock.patch.object(sat, "_READ_SLICE", size):
            assert list(_lines(text)) == text.splitlines()
            assert _outcome(parse_dimacs, text) == _outcome(reference_parse_dimacs, text)

    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_crlf_straddling_a_cut(self, size):
        # the first `size` characters end in the \r of a \r\n
        text = "c" * (size - 1) + "\r\np cnf 2 1\r\n1 -2 0\r\n"
        assert text[size - 1:size + 1] == "\r\n"
        with mock.patch.object(sat, "_READ_SLICE", size):
            assert list(sat._slices(text))[0].endswith("\r\n")
            assert list(_lines(text)) == text.splitlines()
            assert parse_dimacs(text).clauses == [(1, -2)]

    @settings(max_examples=200, deadline=None)
    @given(dimacs_texts(), st.sampled_from([1, 2, 7]))
    def test_parse_agrees_with_reference_at_tiny_slices(self, text, size):
        with mock.patch.object(sat, "_READ_SLICE", size):
            assert list(_lines(text)) == text.splitlines()
            assert _outcome(parse_dimacs, text) == _outcome(reference_parse_dimacs, text)

    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_model_lines_at_tiny_slices(self, size):
        with mock.patch.object(sat, "_READ_SLICE", size):
            assert parse_model("c x\r\ns SATISFIABLE\r\nv 1 -2\rv 3 0", 3)[1:] == [True, False, True]
            with pytest.raises(ParseError, match="^line 3: "):
                parse_model("c x\r\n\x0bv 1 y 0", 3)

    def test_parse_holds_one_slice_of_lines(self):
        # the parent's line list of the (12, 4) instance peaked 5.9 MiB above
        # what the parse keeps; one slice of lines and the literal table
        # stay well under 1 MiB
        cnf, vm = encode_no_k_family(12, 4)
        sink = io.BytesIO()
        emit_dimacs(cnf, sink, comments=default_dimacs_comments(vm, 4))
        text = sink.getvalue().decode("ascii")
        del sink
        tracemalloc.start()
        try:
            back = parse_dimacs(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.clauses == cnf.clauses
        assert peak - kept <= 2 ** 20


# the (n, k) of the sat benchmark's plan
_BENCHMARK_SIZES = [(9, 3), (9, 4), (10, 3), (10, 4), (11, 3),
                    (12, 3), (11, 4), (13, 3), (12, 4), (13, 4)]


def _emitted(n, k):
    cnf, vm = encode_no_k_family(n, k)
    sink = io.BytesIO()
    emit_dimacs(cnf, sink, comments=default_dimacs_comments(vm, k))
    return cnf, sink.getvalue().decode("ascii")


_SEAM_CNF, _SEAM_TEXT = _emitted(9, 3)  # about 84,000 characters
_SEAM_VARS = _SEAM_CNF.num_vars


def _line_at(text, at):
    """Start and end of the first line that starts at or after ``at``."""
    start = text.index("\n", at - 1) + 1
    return start, text.index("\n", start)


def _first_token(replacement):
    def change(text, at, size):
        start, end = _line_at(text, at)
        first, rest = text[start:end].split(" ", 1)
        return text[:start] + replacement + " " + rest + text[end:]
    return change


def _last_token(replacement):
    def change(text, at, size):
        start, end = _line_at(text, at)
        rest, _ = text[start:end].rsplit(" ", 1)
        return text[:start] + rest + " " + replacement + text[end:]
    return change


def _insert(line):
    def change(text, at, size):
        start, _ = _line_at(text, at)
        return text[:start] + line + text[start:]
    return change


def _cuts(text, size):
    """Where each slice of ``text`` ends, and the next one starts, at slice size ``size``."""
    with mock.patch.object(sat, "_READ_SLICE", size):
        return list(accumulate(map(len, sat._slices(text))))


def _break_then_error(brk):
    """The line break ending a line becomes ``brk``; the next slice holds a bad literal."""
    def change(text, at, size):
        _, end = _line_at(text, at)
        text = text[:end] + brk + text[end + 1:]
        return _first_token("x")(text, next(c for c in _cuts(text, size) if c > end), size)
    return change


def _clause_across_a_cut(text, at, size):
    """A clause broken over two lines so that the slice holding ``at`` ends inside it.

    The slice that starts at ``start`` ends at the first ``\\n`` at or after
    ``start + size - 1``; spaces pad the clause's line up to that character.
    """
    start = max(c for c in [0] + _cuts(text, size) if c <= at)
    target = start + size - 1
    line = text.rindex("\n", 0, target) + 1
    end = text.index("\n", line)
    first, rest = text[line:end].split(" ", 1)
    changed = text[:line] + " " * (target - line) + first + "\n" + rest + text[end:]
    assert target + len(first) + 1 in _cuts(changed, size)
    return changed


def _comment_every(lines):
    """From the line at ``at`` on, a comment after every ``lines``-th line."""
    def change(text, at, size):
        start, _ = _line_at(text, at)
        body = text[start:].splitlines(True)
        return text[:start] + "".join(line + "c note\n" * (i % lines == 0)
                                      for i, line in enumerate(body, start=1))
    return change


def _clauses_over_two_lines(text, at, size):
    """From the line at ``at`` on, each clause breaks after its first literal."""
    start, _ = _line_at(text, at)
    return text[:start] + re.sub(r"(?m)^(\S+) ", "\\1\n", text[start:])


def _then_bad_last_line(change):
    """``change``, then the first token of the last line becomes ``x``."""
    def both(text, at, size):
        text = change(text, at, size)
        return _first_token("x")(text, text.rindex("\n", 0, len(text) - 1) + 1, size)
    return both


# changes from ``at`` to the end of the text; each also runs ending in a bad line
_SPREAD_SEAMS = {
    "comment-after-every-line": _comment_every(1),
    "comment-after-every-20-lines": _comment_every(20),
    "comment-after-every-2000-lines": _comment_every(2000),
    "clauses-over-two-lines": _clauses_over_two_lines,
}

_SEAMS = {
    **_SPREAD_SEAMS,
    **{seam + "-then-error": _then_bad_last_line(change) for seam, change in _SPREAD_SEAMS.items()},
    "second-problem-line": _insert(f"p cnf {_SEAM_VARS} 1\n"),
    "comment": _insert("c note\n"),
    "minus-zero": _first_token("-0"),
    "plus-sign": _first_token("+3"),
    "leading-zero": _first_token("03"),
    "zero-inside-a-clause": _first_token("0"),
    "zero-replaced-by-a-literal": _last_token("1"),  # joins two clauses
    "empty-clause": _insert("0\n"),
    "out-of-range": _first_token(str(-_SEAM_VARS - 1)),
    "clause-across-a-cut": _clause_across_a_cut,
    "vertical-tab-then-error": _break_then_error("\x0b"),
    "next-line-then-error": _break_then_error("\x85"),
    "lone-cr-then-error": _break_then_error("\r"),
}


def _declaring_what_it_holds(text):
    """``text`` with its problem line declaring the clauses the reference reads."""
    outcome = _outcome(reference_parse_dimacs, text)
    if outcome[0] == "error" and outcome[1].startswith("expected "):
        found = outcome[1].rsplit(" ", 2)[1]
        head, _, body = text.partition(f"p cnf {_SEAM_VARS} {len(_SEAM_CNF.clauses)}\n")
        return head + f"p cnf {_SEAM_VARS} {found}\n" + body
    return text


class TestReaderSeams:
    """Both readers agree with the reference, outcome and line, around one change."""

    @pytest.mark.parametrize("size", [1, 7, 64, sat._READ_SLICE])
    # at the default size, 20,000 is in a slice of the crossing group (clauses
    # of widths 3 and 5) and 66,000 in one of the family group (width 3)
    @pytest.mark.parametrize("at", [20_000, 66_000], ids=["mixed-widths", "one-width"])
    @pytest.mark.parametrize("seam", sorted(_SEAMS))
    def test_change_after_the_first_slice(self, tmp_path, seam, at, size):
        assert len(next(sat._slices(_SEAM_TEXT))) < 20_000
        changed = _SEAMS[seam](_SEAM_TEXT, at, size)
        path = tmp_path / "seam.cnf"
        for text in {changed, _declaring_what_it_holds(changed)}:
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            expected = _outcome(reference_parse_dimacs, text)
            from_file = _outcome(reference_parse_dimacs, path.read_text(encoding="utf-8"))
            with mock.patch.object(sat, "_READ_SLICE", size):
                assert _outcome(parse_dimacs, text) == expected
                assert _outcome(read_dimacs, path) == from_file
                # a pipe's size is 0: the literal table grows as the text is read
                assert _outcome(lambda t: sat._parse_slices(sat._slices(t), 0), text) == expected

    def test_every_seam_changes_the_outcome_or_the_clauses(self):
        reference = _outcome(reference_parse_dimacs, _SEAM_TEXT)
        for seam, change in _SEAMS.items():
            if seam not in ("comment", "clause-across-a-cut", *_SPREAD_SEAMS):
                text = change(_SEAM_TEXT, 20_000, sat._READ_SLICE)
                assert _outcome(reference_parse_dimacs, text) != reference, seam

    @pytest.mark.parametrize("seam", ["second-problem-line", "out-of-range"])
    @pytest.mark.parametrize("after", [1, 2_000], ids=["next-line", "later"])
    def test_change_in_the_rest_of_the_problem_line_slice(self, tmp_path, seam, after):
        at = _SEAM_TEXT.index("\n", _SEAM_TEXT.index("p cnf")) + after
        changed = _SEAMS[seam](_SEAM_TEXT, at, sat._READ_SLICE)
        assert at < len(next(sat._slices(changed)))
        path = tmp_path / "seam.cnf"
        path.write_text(changed, encoding="ascii")
        expected = _outcome(reference_parse_dimacs, changed)
        assert expected[0] == "error" and expected[2] > 1
        assert _outcome(parse_dimacs, changed) == expected
        assert _outcome(read_dimacs, path) == expected

    @pytest.mark.parametrize("n, k", _BENCHMARK_SIZES)
    def test_round_trip_on_the_benchmark_sizes(self, tmp_path, n, k):
        cnf, text = _emitted(n, k)
        path = tmp_path / "inst.cnf"
        path.write_text(text, encoding="ascii")
        zeros = []
        add = sat._add_clauses

        def counting(clauses, ints):
            zeros.append(ints.count(0))
            add(clauses, ints)

        for parse, source in ((parse_dimacs, text), (read_dimacs, path)):
            zeros.clear()
            with mock.patch.object(sat, "_add_clauses", counting):
                back = parse(source)
            assert (back.num_vars, back.clauses) == (cnf.num_vars, cnf.clauses)
            # every clause is read in a token stream, those of the problem line's slice too
            assert sum(zeros) == len(cnf.clauses)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_read_from_a_pipe(self, tmp_path):
        # a pipe has no size, so the literal table grows as the text is read
        cnf, text = _emitted(10, 3)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_text(text, encoding="ascii"),
                                  daemon=True)
        writer.start()
        back = read_dimacs(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert back.clauses == cnf.clauses

    def test_read_holds_one_slice(self, tmp_path):
        cnf, text = _emitted(12, 4)
        path = tmp_path / "inst.cnf"
        path.write_text(text, encoding="ascii")
        del text
        tracemalloc.start()
        try:
            back = read_dimacs(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.clauses == cnf.clauses
        assert peak - kept <= 2 ** 20


class TestAssignmentFromPointset:
    def test_point_count_must_match_the_map(self):
        with pytest.raises(ValueError, match="point set has 8 points, variable map expects 9"):
            assignment_from_pointset(PointSet.from_coords(NINE_POINT_CF2[:8]), VarMap(9))

    def test_requires_general_position(self):
        S = PointSet.from_coords([(0, 0), (1, 1), (2, 2), (3, 0)])
        with pytest.raises(NotGeneralPositionError, match="assignment requires general position"):
            assignment_from_pointset(S, VarMap(4))

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
                expected[vm.pair_var((s1.a, s1.b), (s2.a, s2.b))] = segments_cross(P, s1, s2)
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

    def test_short_assignment_rejected(self):
        vm = VarMap(5)
        with pytest.raises(ValueError, match="assignment does not cover the triple variables"):
            decode_order_type([False] * vm.num_triple_vars, vm)

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
        with pytest.raises(ParseError, match="does not assign variable 2$"):
            parse_model("1 -3", 3)

    def test_huge_variable_count_fails_before_allocating(self):
        # a 31-digit count must not size a table before the coverage check
        with pytest.raises(ParseError, match="does not assign variable 2$"):
            parse_model("v 1 0", 10 ** 30)
        with pytest.raises(ParseError, match="does not assign variable 3$"):
            parse_model("v -2 1 4 0", 10 ** 30)

    @pytest.mark.parametrize("status", ["UNSATISFIABLE", "UNKNOWN"])
    def test_status_without_a_model_is_named(self, status):
        with pytest.raises(ParseError) as excinfo:
            parse_model(f"c solver output\ns {status}\n", 3)
        assert str(excinfo.value) == f"line 2: solver reports {status}, not a model"

    def test_conflicting_literals(self):
        with pytest.raises(ParseError):
            parse_model("1 -1 2 3", 3)

    def test_non_integer_token(self):
        with pytest.raises(ParseError):
            parse_model("1 two 3", 3)

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "-\u0663"])
    def test_python_only_integer_syntax(self, token):
        with pytest.raises(ParseError) as excinfo:
            parse_model(f"v 1 2\nv {token} 0\n", 10)
        assert str(excinfo.value) == f"line 2: bad model token {token!r}"

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.lists(st.lists(st.sampled_from(
            ["v", "c", "s", "SATISFIABLE", "0", "1", "-1", "2", "-2", "3", "-3", "4",
             "+1", "01", "-0", "1.0", "x", "v1", "--2", "1_0", "\u0663"]), max_size=6).map(" ".join),
            max_size=6).map("\n".join),
        st.text(max_size=40),
    ), st.integers(0, 4))
    def test_malformed_models_end_in_parse_error(self, text, num_vars):
        try:
            asg = parse_model(text, num_vars)
        except ParseError:
            return
        assert len(asg) == num_vars + 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(
        ["v", "c", "s", "0", "1", "-1", "2", "-2", "3", "-3", "4", "-4", "5", "9",
         "+1", "01", "-0", "-01", "x", "--2", "1_0", "\u0663"]), max_size=8).map(" ".join),
        max_size=5).map("\n".join), st.integers(-1, 6))
    def test_literal_table_reads_as_the_checked_path(self, text, num_vars):
        # with an empty table every token is converted and range-checked
        def outcome():
            try:
                return parse_model(text, num_vars)
            except ParseError as exc:
                return str(exc)

        with mock.patch.object(sat, "_literal_table", lambda top: {}):
            checked = outcome()
        assert outcome() == checked

    @pytest.mark.parametrize("text, error", [
        ("v 1 -2 3 4 0", "line 1: literal 4 exceeds 3 variables"),
        ("v 1 -2\nv -4 3 0", "line 2: literal -4 exceeds 3 variables"),
        ("v 1 -2 3 +4 0", "line 1: literal 4 exceeds 3 variables"),
    ])
    def test_literal_out_of_range(self, text, error):
        sat._literal_table(50)  # a larger table than the model's is cached
        with pytest.raises(ParseError) as excinfo:
            parse_model(text, 3)
        assert str(excinfo.value) == error

    def test_model_shares_the_table_its_cnf_was_read_with(self):
        cnf, vm = encode_no_k_family(9, 3)
        asg = assignment_from_pointset(PointSet.from_coords(NINE_POINT_CF2), vm)
        model = "v " + " ".join(str(v if asg[v] else -v) for v in range(1, vm.num_vars + 1)) + " 0\n"
        sink = io.BytesIO()
        emit_dimacs(cnf, sink, comments=default_dimacs_comments(vm, 3))
        sat._literal_table.cache_clear()
        parsed = parse_dimacs(sink.getvalue().decode())
        assert parse_model(model, parsed.num_vars) == asg
        info = sat._literal_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)


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
