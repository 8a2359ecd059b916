"""CNF generation for abstract order types with no k-crossing family.

The encoding asks whether an abstract order type on n points (labeled by
x-order) can avoid any k segments that pairwise cross. Variables:

* triple variables X(a,b,c) for a < b < c, ids 1..C(n,3) in lexicographic
  order; true means counterclockwise. A triple queried in permuted argument
  order is the sorted variable negated iff the permutation is odd.
* pair variables Y({a,b},{c,d}) for disjoint segments: the i-th 4-subset
  w < x < y < z in lexicographic order owns ids C(n,3) + 3i + 1..3 for
  ({w,x},{y,z}), ({w,y},{x,z}), ({w,z},{x,y}), i.e. C(n,3) + 3i plus the
  position of w's partner in (w, x, y, z).

Clause groups, in instance order:

1. orientation-sequence axioms: for every a < b < c < d the sequence
   (X_abc, X_abd, X_acd, X_bcd) changes sign at most once, enforced by the
   eight forbidden patterns (+,-,+)/(-,+,-) over position triples;
2. crossing definition: Y <-> both endpoint pairs of each segment straddle
   the other segment's line, expanded as a full biconditional (8 clauses per
   pair variable) so models decode and verify directly -- this costs a
   constant factor over the one-directional encoding the family clauses need;
3. family exclusion: for every 2k-subset and every perfect matching of it
   into k segments, at least one of the C(k,2) segment pairs does not cross.
   Listed over its 4-subsets in order, a 2k-subset's pair ids are those of
   a 2k-point instance, so a matching's pairs s, t sit at the positions
   ``VarMap(2k).pair_var(s, t) - C(2k,3) - 1``.

No solver is bundled: instances go out as DIMACS CNF and models come back
as whitespace-separated signed integers ('v'-prefixed lines tolerated).

The DIMACS text is produced in bulk and read one slice at a time.
``emit_dimacs`` writes the header once, then splits each chunk of clauses into
runs of equal length and formats a run with one ``%``-operation on a repeated
``"%d ... 0\\n"`` template. ``parse_dimacs`` cuts the text just after a
``\\n`` about every ``_READ_SLICE`` characters (``read_dimacs`` reads a file's
text in the same pieces), so only one slice is alive beside the clauses,
never a list of every line. A table of literal texts maps the canonical text
``str(v)`` of each nonzero literal in range of the problem line to ``v``, and
``"0"`` to 0, for at most one variable per 64 characters of the text (of
the text read so far, when its length is unknown, as for a pipe). Each
slice after the problem line is read as one token stream: its tokens are
looked up in the table in one ``map``, and when every clause of the slice
has the first one's width the clause tuples are built in C by zipping the
columns of that list, else the list is cut at each 0. Lines are then
counted by their ``\\n`` (and lone ``\\r``), which needs the slice to be
ASCII and to hold no other break of ``str.splitlines``. Any other slice (a
token that misses the table, such as a comment, ``+3``, ``03``, ``-0`` or a
literal out of range; a clause pending from the slice before or left open
at its end; another line break) goes line by line through the checked
branch, the only place that raises, which also looks each token up in the
table first and converts and range-checks only a miss. The slice holding
the problem line goes through the checked branch up to that line; the rest
of it is handed back as a slice of its own, so it is read as a token stream
too. The table of the last size read is kept, so ``parse_model`` looks its
tokens up in the table its CNF was read with and converts only a miss; it
reads its lines through ``_lines``.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain, combinations, groupby
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, Union

from .chirotope import _segment_offsets
from .errors import NotGeneralPositionError, ParseError, SignotopeViolationError
from .formats import _parse_int, write_atomic
from .geometry import PointSet

Assignment = list[bool]

_PAIRING_POSITIONS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

#: per pairing ((a, b), (c, d)) of _PAIRING_POSITIONS, orientation (a, b, c),
#: (a, b, d), (c, d, a), (c, d, b) as signed 1-based positions in the triple
#: ids s = (X_wxy, X_wxz, X_wyz, X_xyz) of the 4-subset: triple_literal's rule
_CROSSING_LITERALS = ((1, 2, 3, 4), (-1, 3, 2, -4), (-2, -3, 1, 4))

#: clauses formatted per write by ``emit_dimacs``
_EMIT_CHUNK = 65536

#: characters per slice that the readers take at once, up to the next ``\n``
_READ_SLICE = 16384

#: line breaks of ``str.splitlines`` in ASCII besides ``\n`` and ``\r``
_OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


class VarMap:
    """Deterministic variable numbering for a given point count."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need at least 3 points for orientation variables")
        self.n = n
        self._triple_id = {t: i for i, t in enumerate(combinations(range(n), 3), start=1)}
        self.num_triple_vars = len(self._triple_id)
        #: the 4-subset's pairings are ids base + 1..3 (module docstring)
        self._quad_base = {q: self.num_triple_vars + 3 * i
                           for i, q in enumerate(combinations(range(n), 4))}
        self.num_pair_vars = 3 * len(self._quad_base)
        self.num_vars = self.num_triple_vars + self.num_pair_vars

    def _label_error(self, labels: tuple, problem: str) -> ValueError:
        """Name the first label outside range(n), else ``problem``."""
        for label in labels:
            if label not in range(self.n):
                return ValueError(f"label {label} out of range for {self.n} points")
        return ValueError(problem)

    def triple_var(self, a: int, b: int, c: int) -> int:
        """Variable id of the sorted triple a < b < c."""
        try:
            return self._triple_id[(a, b, c)]
        except KeyError:
            raise self._label_error((a, b, c), f"triple {(a, b, c)} is not a < b < c") from None

    def triple_literal(self, p: int, q: int, r: int) -> int:
        """Signed literal for orientation(p, q, r): negated on odd permutations."""
        try:
            var = self._triple_id[tuple(sorted((p, q, r)))]
        except KeyError:
            raise self._label_error((p, q, r), f"triple {(p, q, r)} repeats a label") from None
        return -var if ((p > q) + (p > r) + (q > r)) & 1 else var

    def pair_var(self, s1: tuple[int, int], s2: tuple[int, int]) -> int:
        """Variable id of the unordered pair of disjoint segments, each a label pair."""
        a, b = sorted(s1)
        c, d = sorted(s2)
        if (a, b) > (c, d):
            (a, b), (c, d) = (c, d), (a, b)
        quad = tuple(sorted((a, b, c, d)))
        try:
            return self._quad_base[quad] + quad.index(b)
        except KeyError:
            raise self._label_error(
                quad, f"segments ({a},{b}) and ({c},{d}) are not disjoint") from None


class Cnf:
    """A clause database: clauses are tuples of nonzero signed variable ids."""

    __slots__ = ("num_vars", "clauses", "sections")

    def __init__(self, num_vars: int, clauses: list[tuple[int, ...]],
                 sections: Optional[tuple[int, int, int]] = None):
        self.num_vars = num_vars
        self.clauses = clauses
        #: clause counts of the axiom / crossing-definition / family groups
        self.sections = sections

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def _matching_patterns(points: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of range(points) as position pairs, deterministic order."""

    def rec(positions: tuple[int, ...]):
        if not positions:
            yield ()
            return
        first = positions[0]
        for i in range(1, len(positions)):
            rest = positions[1:i] + positions[i + 1:]
            for sub in rec(rest):
                yield ((first, positions[i]),) + sub

    return list(rec(tuple(range(points))))


def _tuple_getter(indices: list[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """``itemgetter(*indices)``, but a tuple also for a single index."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def encode_no_k_family(n: int, k: int) -> tuple[Cnf, VarMap]:
    """CNF asserting an n-point abstract order type with no k-crossing family exists."""
    if k < 2 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 4, got n={n}, k={k}")
    vm = VarMap(n)
    triple_id = vm._triple_id
    axioms: list[tuple[int, ...]] = []
    crossing: list[tuple[int, ...]] = []
    negated: dict[tuple[int, ...], tuple[int, int, int]] = {}
    # signed 1-based position i in s is entry i of (0, *s, *-reversed(s))
    readers = [itemgetter(*signs) for signs in _CROSSING_LITERALS]
    for (w, x, y, z), base in vm._quad_base.items():
        a, b, c, d = (triple_id[(w, x, y)], triple_id[(w, x, z)],
                      triple_id[(w, y, z)], triple_id[(x, y, z)])
        # group 1: at most one sign change along s = (a, b, c, d)
        axioms += [(-a, b, -c), (a, -b, c), (-a, b, -d), (a, -b, d),
                   (-a, c, -d), (a, -c, d), (-b, c, -d), (b, -c, d)]
        # group 2: Y <-> proper crossing of the two segments
        signed = (0, a, b, c, d, -d, -c, -b, -a)
        for yv, read in enumerate(readers, start=base + 1):
            la, lb, lc, ld = read(signed)
            crossing += [(-yv, la, lb), (-yv, -la, -lb), (-yv, lc, ld), (-yv, -lc, -ld),
                         (yv, -la, lb, -lc, ld), (yv, -la, lb, lc, -ld),
                         (yv, la, -lb, -lc, ld), (yv, la, -lb, lc, -ld)]
        negated[(w, x, y, z)] = (-base - 1, -base - 2, -base - 3)
    g1, g2 = len(axioms), len(crossing)
    clauses = axioms + crossing

    # group 3: every matching of every 2k-subset has a non-crossing pair;
    # each matching's clause is one getter call on the subset's negated ids
    sub = VarMap(2 * k)
    getters = [_tuple_getter([sub.pair_var(s, t) - sub.num_triple_vars - 1
                              for s, t in combinations(p, 2)])
               for p in _matching_patterns(2 * k)]
    for subset in combinations(range(n), 2 * k):
        negs = tuple(chain.from_iterable(map(negated.__getitem__, combinations(subset, 4))))
        clauses += [get(negs) for get in getters]
    g3 = len(clauses) - g1 - g2

    return Cnf(vm.num_vars, clauses, sections=(g1, g2, g3)), vm


def default_dimacs_comments(vm: VarMap, k: int) -> list[str]:
    return [
        f"order-type instance on n={vm.n} points, excluding {k}-crossing families",
        f"vars 1..{vm.num_triple_vars}: X(a,b,c) for a<b<c lexicographic; true = counterclockwise",
        f"vars {vm.num_triple_vars + 1}..{vm.num_vars}: Y(ab,cd) per 4-subset w<x<y<z,",
        "  pairings (wx|yz), (wy|xz), (wz|xy) in that order; true = segments cross",
        "clause groups: orientation-sequence axioms, crossing biconditional, family exclusion",
    ]


def emit_dimacs(cnf: Cnf, out: Union[str, Path, BinaryIO], comments: Iterable[str] = ()) -> None:
    """Write standard DIMACS CNF with LF line endings; byte-identical across runs.

    Each line of a comment, as ``str.splitlines`` cuts it and so as
    :func:`parse_dimacs` reads it back, is written as its own ``c`` line.

    A path is written through :func:`crossfam.formats.write_atomic`: a
    regular file (or a new one) is replaced atomically, so an interrupted
    run leaves an earlier file intact, while a device or pipe such as
    ``/dev/stdout`` is written directly.
    """
    chunks = _dimacs_chunks(cnf, comments)
    if isinstance(out, (str, Path)):
        write_atomic(out, chunks)
        return
    for chunk in chunks:
        out.write(chunk)


def _dimacs_chunks(cnf: Cnf, comments: Iterable[str]) -> Iterator[bytes]:
    header = [f"c {line}\n" for c in comments for line in c.splitlines()]
    header.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}\n")
    yield "".join(header).encode("ascii")
    clauses = cnf.clauses
    for start in range(0, len(clauses), _EMIT_CHUNK):
        parts = []
        for width, run in groupby(clauses[start:start + _EMIT_CHUNK], len):
            run = list(run)
            line = "%d " * width + "0\n" if width else " 0\n"
            parts.append(line * len(run) % tuple(chain.from_iterable(run)))
        yield "".join(parts).encode("ascii")


def _slices(text: str) -> Iterator[str]:
    """Consecutive pieces of ``text``, each ending just after a ``\\n`` (the last one may not).

    A cut after ``\\n`` never falls inside a ``\\r\\n`` or a line, so the
    pieces' ``splitlines()`` chained are the ``splitlines()`` of the text.
    """
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _READ_SLICE - 1) + 1 or end
        yield text[start:cut]
        start = cut


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split one slice at a time."""
    return chain.from_iterable(map(str.splitlines, _slices(text)))


def _int_token(tok: str, what: str, lineno: int) -> int:
    try:
        return _parse_int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", lineno) from None


def parse_dimacs(text: str) -> Cnf:
    """Round-trip reader for DIMACS CNF (comments ignored)."""
    return _parse_slices(_slices(text), len(text))


def read_dimacs(path: Union[str, Path]) -> Cnf:
    """:func:`parse_dimacs` of a UTF-8 file's text, read one slice at a time.

    The file is read in text mode, so line endings are translated as by
    ``Path.read_text``, and each piece is cut just after a ``\\n`` as
    ``_slices`` cuts. The file's size sizes the literal table (a pipe's, 0,
    lets it grow with the text read). An invalid byte is reported at its
    position in the file, as a decode of the whole file reports it, but only
    once the pieces before it have parsed.
    """
    with open(path, encoding="utf-8") as f:
        size = os.fstat(f.fileno()).st_size
        try:
            return _parse_slices(iter(lambda: f.read(_READ_SLICE - 1) + f.readline(), ""), size)
        except UnicodeDecodeError as exc:
            # exc.object is the last chunk the decoder was given, which ends
            # where the file has been read to
            base = f.buffer.tell() - len(exc.object)
            raise UnicodeDecodeError(exc.encoding, bytes(base) + exc.object, base + exc.start,
                                     base + exc.end, exc.reason) from None


def _parse_slices(pieces: Iterable[str], size: int) -> Cnf:
    """Parse the DIMACS text whose consecutive pieces are ``pieces``.

    Every piece but the last must end just after a ``\\n``. ``size``, the
    length of the text or of its file when known, sizes the literal table.
    """
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    # Canonical literal text -> int for the variables 1..top, and "0". At
    # most one variable per 64 characters of ``size``, or of the text read
    # when that is more, keeps a header that declares a huge count cheap;
    # literals beyond the table still parse, through the checked branch below.
    # Built in one go at the problem line, the table is faster to read than
    # one grown a slice at a time, which only a short ``size`` makes it do.
    table = {"0": 0}
    lookup = table.__getitem__
    top = 0
    read = 0  # characters in the pieces so far, this one included
    lineno = 0  # lines before the piece
    pieces = iter(pieces)
    while (piece := next(pieces, None)) is not None:
        read += len(piece)
        if num_vars is not None and top < num_vars and top < read // 64:
            grown = min(num_vars, read // 64)
            table.update(_literal_texts(top, grown))
            top = grown
        # A piece after the problem line is one token stream when all its
        # tokens are in the table and its last clause ends in it; its lines
        # are then counted by their \n (and lone \r), which needs the other
        # line breaks of str.splitlines to be absent.
        if (num_vars is not None and not pending and piece.isascii()
                and not any(map(piece.__contains__, _OTHER_BREAKS))):
            try:
                ints = list(map(lookup, piece.split()))
            except KeyError:
                pass
            else:
                if not ints or ints[-1] == 0:
                    _add_clauses(clauses, ints)
                    lineno += piece.count("\n")
                    if "\r" in piece:
                        lineno += piece.count("\r") - piece.count("\r\n")
                    continue
        # the checked branch, line by line: the only place that raises
        first = lineno
        lines = piece.splitlines(keepends=True)
        for lineno, raw in enumerate(lines, start=first + 1):
            toks = raw.split()
            if not toks or toks[0].startswith("c"):
                continue
            if toks[0].startswith("p"):
                if num_vars is not None:
                    raise ParseError("second problem line", lineno)
                if len(toks) != 4 or toks[1] != "cnf":
                    raise ParseError(f"bad problem line {raw.strip()!r}", lineno)
                num_vars = _int_token(toks[2], "variable count", lineno)
                declared = _int_token(toks[3], "clause count", lineno)
                if num_vars < 0:
                    raise ParseError(f"negative variable count {num_vars}", lineno)
                if declared < 0:
                    raise ParseError(f"negative clause count {declared}", lineno)
                top = min(num_vars, max(size, read) // 64)
                table = dict(_literal_table(top))
                lookup = table.__getitem__
                # the rest of the piece goes back in front, to be read as a token stream
                rest = "".join(lines[lineno - first:])
                read -= len(rest)
                pieces = chain((rest,), pieces)
                break
            if num_vars is None:
                raise ParseError("clause before problem line", lineno)
            for tok in toks:
                lit = table.get(tok)
                if lit is None:
                    lit = _int_token(tok, "literal", lineno)
                    if abs(lit) > num_vars:
                        raise ParseError(f"literal {lit} exceeds {num_vars} variables", lineno)
                if lit:
                    pending.append(lit)
                else:
                    clauses.append(tuple(pending))
                    pending = []
    if pending:
        clauses.append(tuple(pending))
    if num_vars is None:
        raise ParseError("missing problem line")
    if declared is not None and declared != len(clauses):
        raise ParseError(f"expected {declared} clauses, found {len(clauses)}")
    return Cnf(num_vars, clauses)


@lru_cache(maxsize=1)
def _literal_table(top: int) -> dict[str, int]:
    """Canonical literal text -> int for the variables 1..top, and ``"0"``.

    Kept for the last size, so a model read after its CNF shares the table
    the CNF was read with. The table is shared: read it, or grow a copy.
    """
    table = {"0": 0}
    table.update(_literal_texts(0, top))
    return table


def _literal_texts(low: int, high: int) -> Iterator[tuple[str, int]]:
    """``(str(v), v)`` for the literals v of the variables ``low + 1..high``.

    The negative literals come first, in one block: the family clauses are
    all negative, and a table whose negative entries are not interleaved
    with the positive ones read about 15 % faster on (13, 4).
    """
    variables = range(low + 1, high + 1)
    return chain(((str(-v), -v) for v in variables), ((str(v), v) for v in variables))


def _add_clauses(clauses: list[tuple[int, ...]], ints: list[int]) -> None:
    """Append the clauses of ``ints``, literals each followed by a 0, to ``clauses``.

    When every clause has the first one's width w, the tuples are built in C
    by zipping the w columns ``ints[i::w + 1]``; otherwise ``ints`` is cut at
    each 0.
    """
    if not ints:
        return
    w = ints.index(0)
    step = w + 1
    if w and len(ints) % step == 0 and not any(ints[w::step]):
        columns = [ints[i::step] for i in range(w)]
        if all(map(all, columns)):
            clauses.extend(zip(*columns))
            return
    index, add = ints.index, clauses.append
    start, end = 0, len(ints)
    while start < end:
        cut = index(0, start)
        add(tuple(ints[start:cut]))
        start = cut + 1


def assignment_from_pointset(S: PointSet, vm: VarMap) -> Assignment:
    """Evaluate every variable on a realizable point set.

    Points are taken in left-to-right (x-sorted) order, the labeling for
    which realizable sets satisfy the orientation-sequence axioms; the
    x-coordinates must therefore be pairwise distinct (normalize first if
    needed). For point sets already sorted by x this is the identity
    labeling. Y variables get the exact crossing predicate.
    """
    if len(S) != vm.n:
        raise ValueError(f"point set has {len(S)} points, variable map expects {vm.n}")
    order = sorted(range(len(S)), key=lambda i: S[i].x)
    ordered = PointSet(tuple(S[i] for i in order))
    try:
        left = ordered.side_masks
    except NotGeneralPositionError:
        raise NotGeneralPositionError("assignment requires general position") from None
    if len({p.x for p in S}) != len(S):
        raise ValueError("x-coordinates must be pairwise distinct; apply normalize_coordinates")
    n = vm.n
    asg: Assignment = [False] * (vm.num_vars + 1)
    for (a, b, c), var in vm._triple_id.items():
        asg[var] = bool(left[a * n + b] >> c & 1)
    rows = ordered.crossing_rows
    off = _segment_offsets(n)
    for quad, base in vm._quad_base.items():
        for var, ((a, b), (c, d)) in enumerate(_PAIRING_POSITIONS, start=base + 1):
            asg[var] = bool(rows[off[quad[a]] + quad[b]] >> (off[quad[c]] + quad[d]) & 1)
    return asg


def verify_assignment(cnf: Cnf, asg: Assignment) -> Optional[int]:
    """Index of the first violated clause, or ``None`` when satisfied."""
    if len(asg) != cnf.num_vars + 1:
        raise ValueError(f"assignment must cover variables 1..{cnf.num_vars}")
    for idx, clause in enumerate(cnf.clauses):
        for lit in clause:
            if asg[lit] if lit > 0 else not asg[-lit]:
                break
        else:
            return idx
    return None


def decode_order_type(asg: Assignment, vm: VarMap) -> list[tuple[int, int, int, int]]:
    """Chirotope listing (a, b, c, sign) of the triple block of an assignment.

    Rejects assignments whose triple block violates the orientation-sequence
    axioms, i.e. is not an abstract order type.
    """
    if len(asg) < vm.num_triple_vars + 1:
        raise ValueError("assignment does not cover the triple variables")
    tid = vm._triple_id
    for a, b, c, d in combinations(range(vm.n), 4):
        seq = (asg[tid[(a, b, c)]], asg[tid[(a, b, d)]],
               asg[tid[(a, c, d)]], asg[tid[(b, c, d)]])
        changes = sum(seq[i] != seq[i + 1] for i in range(3))
        if changes > 1:
            raise SignotopeViolationError(
                f"sign sequence of 4-tuple ({a},{b},{c},{d}) changes more than once"
            )
    return [(a, b, c, 1 if asg[var] else -1) for (a, b, c), var in tid.items()]


def parse_model(text: str, num_vars: int) -> Assignment:
    """Parse a solver model: whitespace-separated signed ints, optional 0 terminator.

    Lines starting with 'c' or 's' are skipped and a leading 'v' token prefix
    is tolerated. A status line ``s UNSATISFIABLE`` or ``s UNKNOWN`` raises
    ``ParseError`` naming the status, since such output holds no model. The
    model must assign every variable 1..num_vars.
    """
    values: dict[int, bool] = {}
    done = False
    # a model has at least two characters per literal: a bound like the
    # CNF reader's, which it meets at the CNF's size
    table = _literal_table(min(num_vars, len(text) // 2))
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line[0] in "cs":
            status = line.split()
            if status in (["s", "UNSATISFIABLE"], ["s", "UNKNOWN"]):
                raise ParseError(f"solver reports {status[1]}, not a model", lineno)
            continue
        if line.startswith("v"):
            line = line[1:]
        for tok in line.split():
            lit = table.get(tok)
            if lit is None:
                lit = _int_token(tok, "model token", lineno)
                if lit and abs(lit) > num_vars:
                    raise ParseError(f"literal {lit} exceeds {num_vars} variables", lineno)
            if lit == 0:
                done = True
                break
            var = abs(lit)
            if values.get(var, lit > 0) != (lit > 0):
                raise ParseError(f"conflicting values for variable {var}", lineno)
            values[var] = lit > 0
        if done:
            break
    # every key is in 1..num_vars, so the first unassigned variable, if any,
    # is at most len(values) + 1: no table of num_vars entries before the check
    if len(values) < num_vars:
        missing = next(var for var in range(1, len(values) + 2) if var not in values)
        raise ParseError(f"model does not assign variable {missing}")
    return [False] + [values[var] for var in range(1, num_vars + 1)]
