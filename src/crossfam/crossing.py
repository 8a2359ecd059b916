"""Crossing graphs and exact maximum-crossing-family computation.

The crossing graph has one vertex per spanned segment and an edge between
two segments iff they cross properly; crossing families are exactly its
cliques. Its rows are the ones the point set keeps,
``PointSet.crossing_rows``, so every question asked of one set shares one
graph. The optimizer is a branch-and-bound maximum-clique search with a
greedy-coloring upper bound over bitset adjacency rows, processing vertices
in degeneracy order. Bit p of the search's rows is the p-th vertex the
degeneracy peel removes, so the densest core sits in the top bits, where
``int.bit_length`` finds it without building a negative int. Where the
bound is tight, a colour-class cut skips the branches that cannot hold an
improving clique, and a child whose candidates lie inside those of a
sibling that recorded nothing is not searched. The maximum search starts
from all but the last vertex of a greedy clique, so the bound cuts from the
first node on, while the witness is still a clique the search found itself.
The relabelled graph a search runs on is a pure function of the rows, so
every search on the same rows in one process (``max_crossing_family``,
then ``has_k_family`` at cf + 1) shares one relabelling; no search result
is shared.
``brute_force_cf`` is a deliberately separate exhaustive clique enumeration
used as an oracle in tests.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .chirotope import _segment_offsets
from .errors import SizeLimitError
from .geometry import (PointSet, Segment, _crosses, _integer_points, all_segments,
                       segments_cross)

CrossingFamily = tuple[Segment, ...]


class SegmentList(Sequence):
    """The C(n, 2) segments over labels 0..n-1 in lexicographic order, made when read.

    It reads as the tuple :func:`crossfam.geometry.all_segments` ``(n)`` does:
    the same length, order, items and slices (tuples), and it equals that
    tuple; ``index``, ``in`` and ``count`` are the :class:`Sequence` mixins
    over the items. No segment is kept: reading index i makes the segment
    (a, b) with ``off[a] + b == i``, ``off`` from
    :func:`crossfam.chirotope._segment_offsets`, so a graph whose search
    reads k witness segments makes k segments, not C(n, 2).
    """

    __slots__ = ("_n", "_len", "_off", "_starts")

    def __init__(self, n: int):
        self._n = n
        self._len = n * (n - 1) // 2
        self._off = off = _segment_offsets(n)
        self._starts = [o + a + 1 for a, o in enumerate(off)]  # index of segment (a, a + 1)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple([self[j] for j in range(*i.indices(self._len))])
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("segment index out of range")
        a = bisect_right(self._starts, i) - 1
        return Segment(a, i - self._off[a])

    def __eq__(self, other: object):
        if isinstance(other, SegmentList):
            return self._len == other._len  # C(n, 2) differs for n >= 1; n = 0, 1 are empty
        if isinstance(other, tuple):
            return len(other) == self._len and all_segments(self._n) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"SegmentList({self._n})"


class CrossingGraph:
    """Immutable crossing graph over the segments of a point set.

    ``segments`` lists all C(n, 2) segments in lexicographic order, a
    :class:`SegmentList` that makes each one when it is read, and
    ``adjacency`` holds one bitset per segment index. Construct via
    :func:`build_crossing_graph`.
    """

    __slots__ = ("segments", "adjacency")

    def __init__(self, segments: Sequence[Segment], adjacency: tuple[int, ...]):
        self.segments = segments
        self.adjacency = adjacency

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def __len__(self) -> int:
        return len(self.segments)


def build_crossing_graph(S: PointSet) -> CrossingGraph:
    """Crossing graph over all segments of ``S`` (requires general position, n >= 2)."""
    return CrossingGraph(SegmentList(len(S)), _adjacency(S))


def _adjacency(S: PointSet) -> tuple[int, ...]:
    """The crossing graph's rows, which ``S`` keeps; no segment is built."""
    if len(S) < 2:
        raise ValueError("need at least two points to span a segment")
    return S.crossing_rows


class _TargetReached(Exception):
    pass


class CliqueSearch:
    """Deterministic branch-and-bound maximum-clique search on bitset adjacency.

    Vertices are relabeled so that the densest core (the tail of the
    degeneracy order) is explored first: position p, bit p of every row, is
    the p-th vertex the peel removes. A node splits its candidates into
    greedy colour classes, one bitset each, taking the highest candidate
    bit first; each coloured vertex costs one ``bit_length`` and one AND
    with its skip row, ``full ^ (row | bit)``, and every int stays
    non-negative (``x & -x`` and an AND with a negative int take CPython's
    slower two's-complement path, and colouring runs once per candidate at
    every node). The node walks the classes from the top class down, each
    from its lowest bit, the vertex peeled earliest, cutting when the
    clique plus the class index cannot beat the incumbent. Branching costs
    one ``x & -x`` per child, not per coloured vertex.
    ``best_size``/``best`` are readable mid-run, so callers may inspect
    progress after an interrupt.

    A node is tight when the clique plus its colour bound exceeds the
    incumbent by exactly one. Only the top class is branched on there, and
    an improving clique takes exactly one vertex from every class, since
    each class is an independent set. The colour-class cut filters the
    classes to a fixpoint, dropping a vertex with no neighbour among the
    surviving vertices of some other class: when a class empties the node
    returns, else the survivors replace the top class. Only branches that
    cannot record are cut, so the search records the cliques the plain
    colour bound records, in the same order, and returns the same answer
    and witness.

    A node keeps one bitset ``spent``: the candidates of its last child
    whose search returned with ``best_size`` unchanged. A later child whose
    candidates lie inside ``spent`` is not searched, as it cannot record:
    the spent child extended its prefix by every clique inside ``spent``
    and found nothing larger than ``best_size``, ``best_size`` never falls,
    and the later child extends a prefix of the same size by cliques inside
    a subset of ``spent``, which holds no larger clique. A skipped child's
    subtree would have recorded nothing and left ``best_size`` as it was,
    so the nodes still visited are, in order, nodes the search visits
    without the skip, each with the same clique and candidates, and the
    records, answer and witness are unchanged.

    Without a target, the search starts from a greedy incumbent, in the
    style of the heuristic start of BBMCSP (San Segundo et al.): one dive
    takes the candidate with the most candidate neighbours (ties: highest
    position) until none is left, and the first g - 1 vertices of the
    g-clique it finds are recorded before the first node. The floor is
    g - 1, not g, so the search must still reach a g-clique itself. The
    plain colour bound visits nodes in an order that does not depend on the
    incumbent and cuts only subtrees with no clique above it, so from any
    incumbent below the maximum it records the same first maximum clique,
    and so does the colour-class cut: the answer and witness are an empty
    start's, and only nodes are saved. A floor of g would keep the greedy
    clique as the witness whenever it is maximum. The decision search (a
    target) does not dive.

    The degeneracy order is computed bit-parallel, in the style of the
    BBMC family of solvers (San Segundo et al.): the degrees are held as one
    bitset per binary digit, so each removal step is O(log max degree)
    big-int operations rather than a scan over the vertices, and the rows
    are relabeled by one bit-matrix transposition, a delta swap per power
    of two on the rows packed into one int (:func:`_transpose`).
    ``adjacency`` must be symmetric (u in row v iff v in row u): the
    transposition reads each relabeled row from a column.

    The relabelled rows, the label map and the skip rows are a pure function
    of the rows, computed by :func:`_layout` and kept for the last graph, so
    every search built on the same rows shares them. Nothing else is shared:
    each ``run()`` makes its own dive and full search, each ``run(t)`` its
    own decision search, and ``best``/``best_size`` belong to the instance.
    """

    def __init__(self, adjacency: Sequence[int]):
        self._to_original, self._adj, self._skip = _layout(tuple(adjacency))
        self._n = len(self._adj)
        self._bits = _bits(self._n)
        self.best_size = 0
        self.best: tuple[int, ...] = ()
        self._target: Optional[int] = None

    def run(self, target: Optional[int] = None) -> tuple[int, tuple[int, ...]]:
        """Search for a maximum clique, or stop at the first clique of size ``target``.

        With a target, only cliques of that size are recorded, so a shorter
        best size means none exists. Returns (best size, vertex tuple in
        original labels, sorted ascending).
        """
        if target is not None and target < 1:
            raise ValueError(f"target clique size must be at least 1, got {target}")
        self.best_size = 0 if target is None else target - 1
        self.best = ()
        self._target = target
        if self._n == 0:
            return 0, ()
        if target is None:
            # all but the last vertex of a greedy clique: the search must
            # still find a clique of the greedy size itself
            dive = self._greedy_clique()
            if len(dive) > 1:
                self._record(dive[:-1])
        try:
            self._expand([], (1 << self._n) - 1)
        except _TargetReached:
            pass
        return self.best_size, self.best

    def _greedy_clique(self) -> list[int]:
        """A maximal clique built by repeatedly taking the candidate with the
        most candidate neighbours (ties: highest position, peeled last)."""
        adj, clique = self._adj, []
        cand, verts = (1 << self._n) - 1, range(self._n - 1, -1, -1)
        while verts:
            v = max(verts, key=lambda u: (adj[u] & cand).bit_count())
            clique.append(v)
            cand &= adj[v]
            verts = [u for u in verts if cand >> u & 1]
        return clique

    def _record(self, clique: list[int]) -> None:
        self.best_size = len(clique)
        self.best = tuple(sorted(self._to_original[v] for v in clique))
        if self._target is not None and self.best_size >= self._target:
            raise _TargetReached

    def _expand(self, clique: list[int], cand: int) -> None:
        adj, skip, bits = self._adj, self._skip, self._bits
        classes: list[int] = []
        rest = cand
        while rest:
            avail = start = rest
            while avail:
                p = avail.bit_length() - 1
                avail &= skip[p]
                rest ^= bits[p]
            classes.append(start ^ rest)
        depth = len(clique)
        top = len(classes)
        if top > 1 and depth + top == self.best_size + 1:
            # Tight node: only the top class is branched on, and an improving
            # clique takes one vertex from every class. The dropped vertices
            # leave cand at once: no top-class sibling's child holds them.
            survivors = _transversal_top(adj, classes)
            if not survivors:
                return
            cand ^= classes[-1] ^ survivors
            classes[-1] = survivors
        # the candidates of the last child that returned without a record;
        # a child whose candidates all lie inside them is not searched
        spent = 0
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
                if nxt & spent != nxt:
                    best = self.best_size
                    self._expand(clique, nxt)
                    if self.best_size == best:
                        spent = nxt
                clique.pop()
                cand ^= bit


@lru_cache(maxsize=1)
def _layout(
    adjacency: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(to_original, relabelled rows, skip rows) of :class:`CliqueSearch` on
    ``adjacency``: a pure function of the rows, cached for the last graph."""
    n = len(adjacency)
    full = (1 << n) - 1
    # Repeatedly remove a minimum-degree vertex (ties: smallest index) and
    # give the p-th removed position p, so position n-1 is the last removed
    # (highest core number). inv[j] holds the complement of bit j of the
    # degree of every vertex, within ``full`` so that no plane is negative;
    # the dead ones are masked out by ``alive``.
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
        low ^= low & (low - 1)  # its lowest bit, with no negative int
        v = low.bit_length() - 1
        alive ^= low
        order.append(v)
        borrow = adjacency[v] & alive
        for j, plane in enumerate(inv):
            if not borrow:
                break
            inv[j] = plane ^ borrow
            borrow &= plane
    # Relabel by one transposition: the rows, in peel order, are the rows
    # of a bit matrix whose column u is the row of original vertex u in
    # positions, since the adjacency is symmetric.
    cols = _transpose([adjacency[v] for v in order], max(8, 1 << (n - 1).bit_length()))
    adj = tuple([cols[v] for v in order])
    # skip[p] clears p and its neighbours: one AND of non-negative ints per
    # colouring step
    skip = tuple([full ^ (row | 1 << p) for p, row in enumerate(adj)])
    return tuple(order), adj, skip


#: the largest matrix :func:`_transpose` swaps whole. A larger one is
#: transposed by quadrants, so masks are kept only for sizes 8 to 512, 0.37
#: MiB in all: the ten masks of size 1024 alone take 1.25 MiB, and keeping
#: them raised the extremal benchmark's peak RSS by about 1 MiB.
_WHOLE = 512


def _transpose(rows: list[int], size: int) -> list[int]:
    """The ``size`` columns of the bit matrix ``rows``: bit p of column c is
    bit c of row p.

    ``size`` is a power of two, at least 8, and bounds both the number of
    rows and their width. Up to ``_WHOLE`` the rows are packed into one int,
    row p at bits p * size on, and each delta swap of :func:`_swaps`
    exchanges the off-diagonal blocks of every 2j x 2j block, j = size/2
    down to 1. A larger matrix [[A, B], [C, D]] (A the low columns of the
    top rows) is transposed by quadrants into [[A', C'], [B', D']].
    """
    if size > _WHOLE:
        half = size // 2
        low = (1 << half) - 1
        top, bottom = rows[:half], rows[half:]
        left = zip(_transpose([r & low for r in top], half),
                   _transpose([r & low for r in bottom], half))
        right = zip(_transpose([r >> half for r in top], half),
                    _transpose([r >> half for r in bottom], half))
        return [a | c << half for a, c in left] + [b | d << half for b, d in right]
    width = size // 8
    m = int.from_bytes(b"".join([r.to_bytes(width, "little") for r in rows]), "little")
    for shift, mask in _swaps(size):
        t = (m >> shift ^ m) & mask
        m ^= t | t << shift
    data = m.to_bytes(width * size, "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, width * size, width)]


@lru_cache(maxsize=None)
def _swaps(size: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap of :func:`_transpose` on ``size`` x
    ``size`` bits, kept for every size met, a power of two from 8 to
    ``_WHOLE``.

    The swap for j exchanges bit r * size + c, where r & j == 0 and
    c & j != 0 (the bits its mask holds), with bit (r + j) * size + c - j,
    a shift of j * (size - 1). The mask is built from repeated byte
    patterns: 0.4 ms at size 512, where sums of shifted bits took 15 ms.
    """
    width = size // 8
    swaps = []
    j = size // 2
    while j:
        if j >= 8:
            row = (bytes(j // 8) + b"\xff" * (j // 8)) * (size // (2 * j))
        else:
            row = bytes([sum(1 << c for c in range(8) if c & j)]) * width
        mask = int.from_bytes((row * j + bytes(width * j)) * (size // (2 * j)), "little")
        swaps.append((j * (size - 1), mask))
        j //= 2
    return tuple(swaps)


def _transversal_top(adj: Sequence[int], classes: list[int]) -> int:
    """The vertices of the last class that survive the colour-class cut, or 0.

    ``classes`` are disjoint independent sets, a tight node's colour classes;
    the survivors replace its top class. Until nothing changes, a vertex is
    dropped when it has no neighbour among the surviving vertices of some
    other class, since a clique with one vertex in every class cannot hold
    it. Returns 0 as soon as a class empties: no such clique exists.
    """
    bits = _bits(len(adj))
    classes = list(classes)
    changed = True
    while changed:
        changed = False
        for i, cls in enumerate(classes):
            # each vertex is tested against the other classes only, which
            # stay fixed during the walk, so its order (top bit first, no
            # negative int) does not change the survivors
            others = classes[:i] + classes[i + 1:]
            keep = rest = cls
            while rest:
                v = rest.bit_length() - 1
                rest ^= bits[v]
                row = adj[v]
                for other in others:
                    if not row & other:
                        keep ^= bits[v]
                        break
            if keep != cls:
                if not keep:
                    return 0
                classes[i] = keep
                changed = True
    return classes[-1]


def max_crossing_family(S: PointSet) -> tuple[int, CrossingFamily]:
    """Exact maximum crossing-family size of ``S`` with a witness family."""
    graph = build_crossing_graph(S)
    size, vertices = CliqueSearch(graph.adjacency).run()
    return size, tuple(graph.segments[v] for v in vertices)


def has_k_family(S: PointSet, k: int) -> Optional[CrossingFamily]:
    """A crossing family of size exactly ``k`` if one exists, else ``None``.

    Decision variant: the search is pruned with bound ``k`` and stops at the
    first witness found under the deterministic vertex order.
    """
    if k < 1:
        raise ValueError("family size must be at least 1")
    size, vertices = CliqueSearch(_adjacency(S)).run(target=k)
    if size < k:
        return None
    segments = SegmentList(len(S))
    return tuple(segments[v] for v in vertices)


@lru_cache(maxsize=1)
def _bits(n: int) -> tuple[int, ...]:
    """The single-bit masks ``1 << i`` for i < n, kept for the last size."""
    return tuple([1 << i for i in range(n)])


def _count_cliques(adj: Sequence[int], k: int, cand: Optional[int] = None) -> int:
    """Number of k-cliques inside the vertex mask ``cand`` (default: every vertex).

    Each clique is counted once, at its highest vertex b: the (k-1)-cliques
    among the neighbours of b below it, down to the last three vertices,
    whose triangle is counted at its middle vertex from the smaller side
    (see :func:`_count_below`). Vertices are taken from the top of ``cand``
    with ``bit_length``, and each is cleared with the entry of a table of
    single bits, which allocates nothing; ``cand & -cand`` (the lowest bit)
    would build a negative int and take the slower two's-complement path of
    ``&``, and ``1 << b`` builds a new int on every step.
    """
    if cand is None:
        cand = (1 << len(adj)) - 1
    if k == 0:
        return 1
    if k == 1:
        return cand.bit_count()
    return _count_below(adj, _bits(len(adj)), cand, k)


def _count_below(adj: Sequence[int], bits: tuple[int, ...], cand: int, k: int) -> int:
    """Number of k-cliques inside ``cand``, k >= 2.

    Each clique is counted at its highest vertex b, as a (k-1)-clique among
    the neighbours of b below it, down to its last three vertices, whose
    triangle x > c > d is counted at its middle vertex c: x is a neighbour
    of c above it, d one below, and x-d an edge, so walking either side of
    c and counting each walked vertex's neighbours on the other side finds
    the triangle at c and at no other vertex. The walk takes the smaller
    side, about 0.44 of the edges on random crossing graphs, where a walk
    below each top vertex takes every edge.
    """
    total = 0
    if k == 2:
        while cand:
            b = cand.bit_length() - 1
            cand ^= bits[b]
            total += (adj[b] & cand).bit_count()
        return total
    if k == 3:
        below = cand  # once c is cleared, the candidates below c
        while below:
            c = below.bit_length() - 1
            below ^= bits[c]
            row = adj[c] & cand
            low = row & below
            high = row ^ low
            if low.bit_count() > high.bit_count():
                low, high = high, low
            while low:
                d = low.bit_length() - 1
                low ^= bits[d]
                total += (adj[d] & high).bit_count()
        return total
    while cand:
        if cand.bit_count() < k:
            break
        b = cand.bit_length() - 1
        cand ^= bits[b]
        nxt = adj[b] & cand
        if nxt:
            total += _count_below(adj, bits, nxt, k - 1)
    return total


def _count_cliques_meeting(adj: Sequence[int], k: int, cand: int, hit: int) -> int:
    """Number of k-cliques inside ``cand`` with at least one vertex in ``hit``.

    Each such clique is counted at its highest vertex in ``hit``: the
    (k-1)-cliques in that vertex's neighbourhood once the higher ``hit``
    vertices are dropped from ``cand``.
    """
    if k < 1:
        return 0
    bits = _bits(len(adj))
    total = 0
    hit &= cand
    while hit:
        b = hit.bit_length() - 1
        hit ^= bits[b]
        cand ^= bits[b]
        total += _count_cliques(adj, k - 1, cand & adj[b])
    return total


def count_k_families(S: PointSet, k: int) -> int:
    """Exact number of k-crossing families in ``S``."""
    if k < 0:
        raise ValueError("family size must be non-negative")
    return _count_cliques(_adjacency(S), k)


def brute_force_cf(S: PointSet) -> int:
    """Maximum crossing-family size by exhaustive clique enumeration.

    Independent oracle for the branch-and-bound solver: builds its own
    adjacency straight from :func:`segments_cross` and enumerates every
    clique without bounding or ordering heuristics. Capped at n <= 10.
    """
    n = len(S)
    if n > 10:
        raise SizeLimitError(f"brute-force oracle capped at 10 points, got {n}")
    segs = all_segments(n)
    neighbors = [set() for _ in segs]
    for i, j in combinations(range(len(segs)), 2):
        if segments_cross(S, segs[i], segs[j]):
            neighbors[i].add(j)
            neighbors[j].add(i)
    best = 1 if segs else 0

    def extend(candidates: list[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for pos, v in enumerate(candidates):
            extend([u for u in candidates[pos + 1:] if u in neighbors[v]], size + 1)

    extend(list(range(len(segs))), 0)
    return best


def is_crossing_family(S: PointSet, family: Sequence[Segment]) -> bool:
    """True iff the segments pairwise cross in their interiors; every index must be in ``S``.

    The endpoints are checked against ``S`` and scaled to integers once, and
    every pair goes through the one integer crossing test of
    :func:`crossfam.geometry.segments_cross`. A repeated segment shares its
    endpoints with itself, so a family that repeats one fails that test.
    """
    ends = _integer_points(S, [i for s in family for i in (s.a, s.b)])
    return all(_crosses(p, q, r, t)
               for (p, q), (r, t) in combinations(zip(ends[::2], ends[1::2]), 2))
