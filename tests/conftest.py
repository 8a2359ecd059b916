import importlib
import pkgutil
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

import crossfam
from crossfam import chirotope
from crossfam.crossing import CliqueSearch, _transversal_top
from crossfam.errors import DegenerateEpsilonError, EpsilonSearchError, InvalidSegmentError
from crossfam.geometry import PointSet, Segment, all_segments, orientation, segments_cross
from crossfam.replication import _replica
from crossfam.search import random_general_position


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def _count_kernel_calls(monkeypatch, name, key):
    """Wrap ``chirotope.<name>`` in every crossfam module that binds it, so a
    call is counted whichever module makes it; returns the list of ``key(args)``.

    Every submodule is imported first: one imported later, during the test,
    would bind the real kernel and its calls would go uncounted.
    """
    real = getattr(chirotope, name)
    calls = []

    def counted(*args):
        calls.append(key(*args))
        return real(*args)

    for info in pkgutil.iter_modules(crossfam.__path__):
        if not info.name.startswith("_"):  # crossfam.__main__ would run the CLI
            importlib.import_module(f"crossfam.{info.name}")
    for modname, module in list(sys.modules.items()):
        if modname.startswith("crossfam") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def kernel_passes(monkeypatch):
    """Coordinate tuples of every ``chirotope.side_masks`` pass, in call order."""
    return _count_kernel_calls(monkeypatch, "side_masks", tuple)


@pytest.fixture
def row_builds(monkeypatch):
    """Point counts of every ``chirotope.crossing_rows`` build, in call order."""
    return _count_kernel_calls(monkeypatch, "crossing_rows", lambda left, n, sides=None: n)


class ReferenceSearch(CliqueSearch):
    """The clique search with the plain colour bound and no colour-class cut.

    Same relabeling, greedy incumbent and recording as :class:`CliqueSearch`;
    a test oracle for the searched answers and for the sequence of recorded
    cliques.
    """

    def _expand(self, clique, cand):
        order = []
        bounds = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = avail.bit_length() - 1
                bit = 1 << v
                avail ^= bit
                avail &= ~self._adj[v]
                rest ^= bit
                order.append(v)
                bounds.append(color)
        adj = self._adj
        depth = len(clique)
        for i in range(len(order) - 1, -1, -1):
            if depth + bounds[i] <= self.best_size:
                return
            v = order[i]
            clique.append(v)
            if len(clique) > self.best_size:
                self._record(clique)
            nxt = cand & adj[v]
            if nxt:
                self._expand(clique, nxt)
            clique.pop()
            cand ^= 1 << v


class SiblingBlindSearch(CliqueSearch):
    """The clique search without the spent-sibling skip.

    The same colour classes and colour-class cut as :class:`CliqueSearch`,
    but every child with a candidate is searched; a test oracle for the
    records and for the calls the skip leaves out.
    """

    def _expand(self, clique, cand):
        adj, skip = self._adj, self._skip
        classes = []
        rest = cand
        while rest:
            avail = start = rest
            while avail:
                v = avail.bit_length() - 1
                avail &= skip[v]
                rest ^= 1 << v
            classes.append(start ^ rest)
        depth = len(clique)
        top = len(classes)
        if top > 1 and depth + top == self.best_size + 1:
            survivors = _transversal_top(adj, classes)
            if not survivors:
                return
            cand ^= classes[-1] ^ survivors
            classes[-1] = survivors
        for bound in range(top, 0, -1):
            cls = classes[bound - 1]
            while cls:
                if depth + bound <= self.best_size:
                    return
                bit = cls & -cls
                v = bit.bit_length() - 1
                cls ^= bit
                clique.append(v)
                if len(clique) > self.best_size:
                    self._record(clique)
                nxt = cand & adj[v]
                if nxt:
                    self._expand(clique, nxt)
                clique.pop()
                cand ^= bit


def top_vertex_count(adj, k, cand=None):
    """Number of k-cliques inside ``cand``, each counted at its highest vertex.

    The clique counter with no middle-vertex triangles: the last two levels
    walk every edge below the top vertex. A test oracle for
    :func:`crossfam.crossing._count_cliques`.
    """
    if cand is None:
        cand = (1 << len(adj)) - 1
    if k == 0:
        return 1
    if k == 1:
        return cand.bit_count()
    return _top_vertex_count_below(adj, tuple([1 << i for i in range(len(adj))]), cand, k)


def _top_vertex_count_below(adj, bits, cand, k):
    total = 0
    if k == 2:
        while cand:
            b = cand.bit_length() - 1
            cand ^= bits[b]
            total += (adj[b] & cand).bit_count()
        return total
    if k == 3:
        # each edge (b, c) below the top vertex b closes a triangle with
        # every common neighbour below c
        while cand:
            b = cand.bit_length() - 1
            cand ^= bits[b]
            nxt = adj[b] & cand
            while nxt:
                c = nxt.bit_length() - 1
                nxt ^= bits[c]
                total += (adj[c] & nxt).bit_count()
        return total
    while cand:
        if cand.bit_count() < k:
            break
        b = cand.bit_length() - 1
        cand ^= bits[b]
        nxt = adj[b] & cand
        if nxt:
            total += _top_vertex_count_below(adj, bits, nxt, k - 1)
    return total


def text_layout(adjacency):
    """(to_original, relabelled rows, skip rows) of the clique search, with
    the rows relabelled by one transposition of their binary text.

    The same bit-plane peel as :func:`crossfam.crossing._layout`; the rows
    are then written, in peel order from the last vertex peeled, as one text
    of n characters each, and every n-th character from n-1-u on is read
    back as the row of original vertex u. A test oracle for ``_layout``.
    """
    n = len(adjacency)
    full = (1 << n) - 1
    degs = [row.bit_count() for row in adjacency]
    width = (max(degs).bit_length() or 1) if n else 0
    digits = "".join([format(d, f"0{width}b") for d in reversed(degs)])
    inv = [full ^ int(digits[width - 1 - j::width], 2) for j in range(width)]
    alive = full
    order = []
    for _ in range(n):
        low = alive
        for plane in reversed(inv):
            zeros = low & plane
            if zeros:
                low = zeros
        low ^= low & (low - 1)
        v = low.bit_length() - 1
        alive ^= low
        order.append(v)
        borrow = adjacency[v] & alive
        for j, plane in enumerate(inv):
            if not borrow:
                break
            inv[j] = plane ^ borrow
            borrow &= plane
    text = bytearray()
    for v in reversed(order):
        text += format(adjacency[v], f"0{n}b").encode()
    adj = tuple([int(text[n - 1 - v::n], 2) for v in order])
    skip = tuple([full ^ (row | 1 << p) for p, row in enumerate(adj)])
    return tuple(order), adj, skip


def reference_choose_epsilon(S: PointSet, m: int):
    """The spacing search with no screen: replicate and certify every spacing tried.

    Same start and halving as :func:`crossfam.replication.choose_epsilon`,
    each spacing's replica built and checked with its own side-mask pass,
    never cut from the replica a search kept; a test oracle for the
    searched spacing.
    """
    gaps = [abs(p.x - q.x) for p, q in combinations(S, 2)]
    gaps += [abs(p.y - q.y) for p, q in combinations(S, 2)]
    eps = Fraction(min(gaps)) / (4 * m) if gaps else Fraction(1, 4 * m)
    for _ in range(65):
        try:
            if _replica(S, m, eps, None)[2].certified:
                return eps
        except DegenerateEpsilonError:
            pass
        eps /= 2
    raise EpsilonSearchError(f"no certified spacing found for n={len(S)}, m={m}")


def random_pointset(rng: random.Random, n: int, bound: int = 50) -> PointSet:
    return random_general_position(n, rng, bound)


def pairwise_rows(S: PointSet) -> list[int]:
    """Crossing rows from the pairwise predicate, an oracle independent of the kernel."""
    segs = all_segments(len(S))
    rows = [0] * len(segs)
    for i, j in combinations(range(len(segs)), 2):
        if segments_cross(S, segs[i], segs[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def reference_cross(S: PointSet, s1, s2) -> bool:
    """Proper crossing from four calls of the public ``orientation``: the
    pairwise test as it stood before the endpoints were scaled once."""
    n = len(S)
    for idx in (s1.a, s1.b, s2.a, s2.b):
        if not 0 <= idx < n:
            raise InvalidSegmentError(f"point index {idx} out of range for {n} points")
    if s1.shares_endpoint(s2):
        return False
    p, q, r, t = S[s1.a], S[s1.b], S[s2.a], S[s2.b]
    return (orientation(p, q, r) * orientation(p, q, t) < 0
            and orientation(r, t, p) * orientation(r, t, q) < 0)


def reference_is_crossing_family(S: PointSet, family) -> bool:
    members = list(family)
    n = len(S)
    bad = [i for s in members for i in (s.a, s.b) if not 0 <= i < n]
    if bad:
        raise InvalidSegmentError(f"point index {bad[0]} out of range for {n} points")
    if len(set(members)) != len(members):
        return False
    return all(reference_cross(S, s, t) for s, t in combinations(members, 2))


def outcome(f, *args):
    """f(*args), or the type and message of the crossfam error it raised."""
    try:
        return f(*args)
    except InvalidSegmentError as exc:
        return type(exc), str(exc)


@st.composite
def exact_pointsets(draw, min_size=4, max_size=8):
    """Points on a small grid of ints, fractions or both, so that collinear
    triples, shared coordinates and repeated points are common."""
    ints = st.integers(-4, 4)
    fractions = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))
    coord = draw(st.sampled_from([ints, fractions, st.one_of(ints, fractions)]))
    big = draw(st.sampled_from([1, 10 ** 30]))  # a scale far past float range
    return PointSet.from_coords(draw(st.lists(
        st.tuples(coord, coord).map(lambda p: (p[0] * big, p[1])),
        min_size=min_size, max_size=max_size, unique=draw(st.booleans()))))


def exact_segments(n: int, low: int = 0, high: int = 0):
    """Segments over labels low..n-1+high; ``low < 0`` or ``high > 0`` reach
    out of range."""
    return st.tuples(st.integers(low, n - 1 + high), st.integers(low, n - 1 + high)).filter(
        lambda ab: ab[0] != ab[1]).map(lambda ab: Segment(*ab))


def collinear_triple(coords) -> tuple[int, int, int] | None:
    """First collinear index triple of exact coordinates, else None.

    A pairwise loop independent of the kernel; coordinates may be integers
    or fractions.
    """
    n = len(coords)
    for a in range(n - 2):
        ax, ay = coords[a]
        for b in range(a + 1, n - 1):
            ux = coords[b][0] - ax
            uy = coords[b][1] - ay
            for c in range(b + 1, n):
                if ux * (coords[c][1] - ay) == uy * (coords[c][0] - ax):
                    return (a, b, c)
    return None


def degeneracy(coords) -> str | None:
    """The kernel's message for exact coordinates not in general position, else None.

    The first collinear triple; with no third point, two coincident points.
    """
    bad = collinear_triple(coords)
    if bad is not None:
        return f"points {bad} are collinear"
    if len(set(coords)) < len(coords):
        return "points 0 and 1 coincide"
    return None


# 9-point configuration with no 3-crossing family, recovered by the bundled
# annealer and re-verified by both exact solvers at package time.
NINE_POINT_CF2 = (
    (-28, -5), (-61, -4), (12, 50), (24, -16), (-17, 9),
    (-29, 2), (72, -44), (-77, -9), (5, 17),
)


# Values and keys that format_texts writes into the lines of a template text.
# Hypothesis draws the first entries most often; the 31-digit count is among
# them, since a table sized by a count that large cannot be allocated.
_VALUES = ["1000000000000000000000000000000", "0", "1", "2", "3", "-1", "7", "1/2", "-3/4",
           "1/0", "2/-3", "0/5", "+3", "1_0", "03", "x", "1.5", "nan", "inf", "-inf", "1e400",
           "0x10", "/", "1/", "--1", "\u0663", "true", "false", "True", "9" * 5000]
_KEYS = ["k", "edges", "initial", "epsilon", "m", "source_n", "cluster_isolation", "copy_order",
         "n", "seed", "iterations", "initial_temperature", "cooling_rate", "step_sigma",
         "grid_bound"]


@st.composite
def format_texts(draw, template):
    """Texts near a well-formed ``template``: up to three lines changed, or any text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=60))
    lines = template.splitlines()
    line = st.one_of(
        st.lists(st.sampled_from(_VALUES + _KEYS + ["=", ":", "#"]), max_size=4).map(" ".join),
        st.tuples(st.sampled_from(_KEYS), st.sampled_from(["=", ":", " = ", ": "]),
                  st.sampled_from(_VALUES)).map("".join),
    )
    for _ in range(draw(st.integers(1, 3))):
        # half the changes hit the first line, the count or header of each format
        i = draw(st.one_of(st.just(0), st.integers(0, len(lines))))
        action = draw(st.sampled_from(["revalue", "revalue", "insert", "replace", "delete"]))
        if action == "insert" or i == len(lines):
            lines.insert(i, draw(line))
        elif action == "replace":
            lines[i] = draw(line)
        elif action == "revalue":  # a new value for one number of the line, or any token
            tokens = lines[i].split() or [""]
            numbers = [j for j, tok in enumerate(tokens) if any(map(str.isdigit, tok))]
            j = draw(st.sampled_from(numbers or range(len(tokens))))
            tokens[j] = draw(st.sampled_from(_VALUES))
            lines[i] = " ".join(tokens)
        else:
            del lines[i]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
