"""Point replication along parabolic arcs, with a certificate for the spacing.

Replacing every point (x, y) of a set S by m copies (x + i*eps, y + (i*eps)^2)
for i = 0..m-1 multiplies the point count by m while, for sufficiently small
eps, multiplying the maximum crossing-family size by at most m. Two exact,
exhaustive checks certify a spacing:

* cluster isolation -- a segment between two copies of the same source point
  is crossed only by segments that touch a copy of that same source point;
* copy order -- if source p lies above source q, every line through two
  copies of p passes strictly above every copy of q (and symmetrically below).

``choose_epsilon`` halves a spacing until both checks pass, so emitted sets
carry a machine-verified certificate rather than an asymptotic argument.

Both checks read the replica's ``PointSet.side_masks``; that one pass is
also the replica's general-position check, and the replica keeps it for its
crossing graph. Cluster isolation is a few mask operations per intra-cluster
segment and outside point, and copy order one mask test per line through two
copies.

A trimmed replica is a subset of the full one, so its table is the full
replica's cut to the kept points (``PointSet.subset``), exact bit work with
no determinant. The search keeps the full replica it accepted, one at a
time, and a trimmed replica at that spacing is cut from it: the search's
own, and that of a later call given the same source, copy count and
spacing (compared by value), as in ``replicate_certified(S, m,
choose_epsilon(S, m), total)``. Any other replica takes its own pass. Both
checks still certify every trimmed replica from its own table.

Most spacings the search tries fail, so it screens each one before building
its replica, on integer coordinates it builds from the source and eps. It
reads the lines through two copies of one source, with
``chirotope.pair_masks``, then each line through two sources at the copies
of the third clusters near it; copy order, once it holds, fixes the side of
every copy line each source lies on, so no copy line is read twice. It
refutes a spacing that collides coordinates or puts a third point on one of
those lines, breaks copy order, or lets a segment between two sources cross
a segment between two copies of a third. A refuted spacing is halved at
once. Only the full pass accepts a spacing, so the search returns the
spacing, replica and certificate it would return without the screen. An
explicit epsilon is never screened.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

from .chirotope import pair_masks
from .errors import (
    DegenerateEpsilonError,
    EpsilonSearchError,
    NotGeneralPositionError,
    SameSourceSegmentError,
)
from .geometry import (
    _EXACT_TYPES,
    Coord,
    Point,
    PointSet,
    Segment,
    has_distinct_coordinates,
    is_general_position,
)


@dataclass(frozen=True)
class CopyMap:
    """Maps each replicated index to (source index, copy number)."""

    entries: tuple[tuple[int, int], ...]
    source_n: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def source_of(self, index: int) -> int:
        return self.entries[index][0]

    def copies_of(self, source: int) -> tuple[int, ...]:
        return self._copies.get(source, ())

    @cached_property
    def _copies(self) -> dict[int, tuple[int, ...]]:
        """Per source, its replicated indices in increasing order; one pass, kept (not a field)."""
        copies: dict[int, list[int]] = {}
        for i, (src, _) in enumerate(self.entries):
            copies.setdefault(src, []).append(i)
        return {src: tuple(indices) for src, indices in copies.items()}


@dataclass(frozen=True)
class ReplicationCertificate:
    """Record of a replication run: spacing, copy count, and verifier outcomes."""

    epsilon: Coord
    m: int
    source_n: int
    cluster_isolation_ok: bool
    copy_order_ok: bool

    @property
    def certified(self) -> bool:
        return self.cluster_isolation_ok and self.copy_order_ok


def _check_replication_input(S: PointSet, m: int, epsilon: Optional[Coord],
                             total: Optional[int]) -> None:
    """Reject a copy count, a given spacing or total, or a source set unfit for replication."""
    # a bool would be recorded as True or False, which no parser reads
    if isinstance(m, bool):
        raise TypeError("copy count must be an int, got bool")
    if isinstance(total, bool):
        raise TypeError("total must be an int, got bool")
    if m < 1:
        raise ValueError("copy count must be at least 1")
    if epsilon is not None:
        # a float would be replicated as its binary expansion but recorded as given
        if not isinstance(epsilon, _EXACT_TYPES) or isinstance(epsilon, bool):
            raise TypeError(f"exact spacing required, got {type(epsilon).__name__}")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
    if not is_general_position(S):
        raise NotGeneralPositionError("source set must be in general position")
    if not has_distinct_coordinates(S):
        raise ValueError(
            "source coordinates must be pairwise distinct; apply normalize_coordinates first"
        )


def _copy_counts(n: int, m: int, total: Optional[int]) -> list[int]:
    """Copies kept per source point when only ``total`` points are wanted.

    The excess is removed by repeatedly dropping the highest remaining copy
    number from the highest-index source point among those with the most
    copies left, which keeps the counts balanced and deterministic.
    """
    if total is None:
        return [m] * n
    if not n <= total <= m * n:
        raise ValueError(f"total must lie in [{n}, {m * n}], got {total}")
    # every source loses ``rounds`` copies and the last ``extra`` one more
    rounds, extra = divmod(m * n - total, n)
    return [m - rounds - (src >= n - extra) for src in range(n)]


def _replica(
    S: PointSet, m: int, epsilon: Coord, total: Optional[int], full: Optional[PointSet] = None
) -> tuple[PointSet, CopyMap, ReplicationCertificate]:
    """Replicate a checked source and certify the replica from its side-mask table.

    Given ``full``, the certified full m-copy replica at this spacing, the
    replica is cut from it with its table (:meth:`PointSet.subset`).
    Otherwise it is built, and one side-mask pass checks it: a spacing that
    breaks general position or coordinate distinctness raises
    :class:`DegenerateEpsilonError`.
    """
    eps = Fraction(epsilon)
    counts = _copy_counts(len(S), m, total)
    entries = [(src, i) for src in range(len(S)) for i in range(counts[src])]
    if full is not None:
        out = full.subset([src * m + i for src, i in entries])
    else:
        points = []
        for src, i in entries:
            p = S[src]
            step = i * eps
            points.append(Point(p.x + step, p.y + step * step))
        out = PointSet(tuple(points))
        if not has_distinct_coordinates(out):
            raise DegenerateEpsilonError(f"epsilon {eps} collides replica coordinates")
        try:
            out.side_masks
        except NotGeneralPositionError as exc:
            raise DegenerateEpsilonError(
                f"epsilon {eps} makes points {exc.triple} collinear"
            ) from None
    cmap = CopyMap(tuple(entries), len(S))
    cert = ReplicationCertificate(
        epsilon=epsilon,
        m=m,
        source_n=len(S),
        cluster_isolation_ok=verify_cluster_isolation(out, cmap),
        copy_order_ok=verify_copy_order(S, out, cmap),
    )
    return out, cmap, cert


def _check_copy_map(S2: PointSet, cmap: CopyMap) -> None:
    if len(cmap) != len(S2):
        raise ValueError(f"copy map has {len(cmap)} entries, replica has {len(S2)} points")


def verify_cluster_isolation(S2: PointSet, cmap: CopyMap) -> bool:
    """Exhaustive check that intra-cluster segments are isolated.

    Every segment joining two copies of one source point may be crossed only
    by segments with at least one endpoint at a copy of that same source.
    ``S2`` must be in general position and ``cmap`` must map its points.

    For copies a, b of one source, let L and R be the outside points left
    and right of a -> b. A segment cd with c in L, d in R crosses ab iff a
    and b lie on opposite sides of cd, i.e. iff d lies in exactly one of the
    side masks of (a, c) and (b, c).
    """
    _check_copy_map(S2, cmap)
    left = S2.side_masks
    n2 = len(S2)
    every = (1 << n2) - 1
    for src in range(cmap.source_n):
        cluster = cmap.copies_of(src)
        outside = every
        for i in cluster:
            outside ^= 1 << i
        for a, b in combinations(cluster, 2):
            lefts = left[a * n2 + b] & outside
            rights = left[b * n2 + a] & outside
            while lefts:
                low = lefts & -lefts
                c = low.bit_length() - 1
                if (left[a * n2 + c] ^ left[b * n2 + c]) & rights:
                    return False
                lefts ^= low
    return True


def _copy_order_lines(S: PointSet, cmap: CopyMap,
                      x: Sequence[Coord]) -> list[tuple[int, int, int, int]]:
    """The lines copy order reads: (v, u, lower, others) per two copies u, v of one source.

    ``x`` orders each pair, x[u] < x[v]. ``others`` holds the copies of
    every other source and ``lower`` those of the sources below. The line
    through u and v passes strictly above every lower copy and strictly
    below every other one iff the mask of (v, u), the points below it,
    meets ``others`` in exactly ``lower``.
    """
    every = (1 << len(cmap)) - 1
    lines = []
    lower = 0
    # sources have pairwise distinct y, as replication requires
    for src in sorted(range(len(S)), key=lambda i: S[i].y):
        cluster = cmap.copies_of(src)
        own = sum(1 << i for i in cluster)
        for u, v in combinations(cluster, 2):
            if x[u] > x[v]:
                u, v = v, u
            lines.append((v, u, lower, every ^ own))
        lower |= own
    return lines


def _copy_order_holds(lines: list[tuple[int, int, int, int]], masks: Sequence[int]) -> bool:
    """Copy order from the masks of the pairs (v, u) of :func:`_copy_order_lines`."""
    return all(mask & others == lower for (_, _, lower, others), mask in zip(lines, masks))


def verify_copy_order(S: PointSet, S2: PointSet, cmap: CopyMap) -> bool:
    """Exhaustive check that copy clusters respect the vertical order of their sources.

    For sources p above q, every line through two distinct copies of p must
    pass strictly above every copy of q, and every line through two copies
    of q strictly below every copy of p. ``S2`` must be in general position
    and ``cmap`` must map it onto ``S``.

    A point lies strictly below the line through copies u, v with
    x_u < x_v iff it lies left of v -> u, so of the copies of other
    sources the side mask of (v, u) must hold exactly those of the lower
    ones.
    """
    _check_copy_map(S2, cmap)
    if cmap.source_n != len(S):
        raise ValueError(f"copy map has {cmap.source_n} sources, source set has {len(S)} points")
    left = S2.side_masks
    n2 = len(S2)
    lines = _copy_order_lines(S, cmap, [p.x for p in S2])
    return _copy_order_holds(lines, [left[v * n2 + u] for v, u, _, _ in lines])


class _SpacingScreen:
    """Refutes failing spacings of the full replica from a few of its lines.

    A refuted spacing makes :func:`_replica` raise
    :class:`DegenerateEpsilonError` or return an uncertified certificate;
    a spacing not refuted may still fail there. The screen works on the
    replica laid out copy-major, copy i of source s at index ``i*n + s``,
    so its first n points are the sources. The coordinates are integers:
    x is scaled by a common denominator of the source x and eps, y of the
    source y and eps^2, one positive scale per axis, which keeps every
    orientation. A spacing is refuted when

    * two points share an x or a y, or one of the lines read passes
      through a third point;
    * a line through two copies of one source breaks copy order, by the
      predicate of :func:`verify_copy_order`;
    * a segment between two sources crosses a segment between two copies
      of a third source s, which breaks cluster isolation: the line of the
      sources a, b splits the copies of s, and s lies between a and b in y,
      so copy order puts a and b on opposite sides of every line through
      two copies of s.

    A line through two sources is read only at the copies of the third
    sources near it: a cluster whose source lies far from the line lies
    wholly on its side, so it holds no point of the line and is not split.
    No copy of a or b but a and b themselves lies on the line, since such a
    copy of a would put b on a line through two copies of a, which the
    copy lines already read; so a line with no third source near it is not
    read at all.
    """

    def __init__(self, S: PointSet, m: int):
        self._n, self._m = len(S), m
        self._lx = lcm(*(p.x.denominator for p in S))
        self._ly = lcm(*(p.y.denominator for p in S))
        self._x = [int(p.x * self._lx) for p in S]
        self._y = [int(p.y * self._ly) for p in S]
        cmap = CopyMap(tuple((s, i) for i in range(m) for s in range(len(S))), len(S))
        # copy i lies at x + i*eps, so copy numbers order the x of a cluster
        self._lines = _copy_order_lines(S, cmap, [i for _, i in cmap.entries])
        self._line_pairs = [(v, u) for v, u, _, _ in self._lines]
        # Per line through two sources a, b: |u_x| and |u_y| in source units,
        # the |det| of each source against it and that of the nearest third
        # source.
        points = list(zip(self._x, self._y))
        self._source_lines = []
        for a, b in combinations(range(len(S)), 2):
            ux, uy = self._x[b] - self._x[a], self._y[b] - self._y[a]
            k = ux * self._y[a] - uy * self._x[a]
            dist = [abs(ux * y - uy * x - k) for x, y in points]
            nearest = sorted(dist)[2] if len(S) > 2 else 0
            self._source_lines.append((a, b, abs(ux), abs(uy), dist, nearest))

    def refutes(self, eps: Fraction) -> bool:
        """True when the full replica at spacing ``eps`` cannot be certified.

        Source s lies at (X*dx, Y*dy) in the screen's coordinates, with
        (X, Y) its integer source coordinates and dx, dy the denominators of
        the scaled spacings, and copy i of s is moved from it by
        (i*e_x, i*i*e_y), e_x and e_y their numerators. Against a line of
        direction (u_x, u_y), a copy's determinant differs from its
        source's by at most reach = (m-1)^2*|u_x|*e_y + (m-1)*|u_y|*e_x. A
        source farther than reach from the line through a and b (its |det|
        from the set-up, times dx*dy) has all its copies strictly on one
        side of it, so only the clusters of the third sources within reach
        are read. Mostly the nearest third source is beyond reach, and the
        line is skipped: once the copy lines hold no third point, the
        clusters of a and b meet it only at a and b.
        """
        n, m = self._n, self._m
        ex = eps * self._lx
        ey = eps * eps * self._ly
        xs = [x * ex.denominator + i * ex.numerator for i in range(m) for x in self._x]
        ys = [y * ey.denominator + i * i * ey.numerator for i in range(m) for y in self._y]
        if len(set(xs)) < len(xs) or len(set(ys)) < len(ys):
            return True
        coords = list(zip(xs, ys))
        lines = pair_masks(coords, self._line_pairs)
        if lines is None or not _copy_order_holds(self._lines, lines):
            return True
        dx, dy = ex.denominator, ey.denominator
        scale = dx * dy
        reach_x = (m - 1) ** 2 * dx * ey.numerator
        reach_y = (m - 1) * dy * ex.numerator
        for a, b, ux0, uy0, dist, nearest in self._source_lines:
            reach = ux0 * reach_x + uy0 * reach_y
            if nearest * scale > reach:
                continue
            ax, ay = coords[a]
            ux = coords[b][0] - ax
            uy = coords[b][1] - ay
            k = ux * ay - uy * ax  # orient(a, b, c) = ux*cy - uy*cx - k
            low, high = sorted((self._y[a], self._y[b]))
            for s, d in enumerate(dist):
                if s == a or s == b or d * scale > reach:
                    continue
                dets = [ux * y - uy * x for x, y in coords[s::n]]
                if k in dets or (min(dets) < k < max(dets) and low < self._y[s] < high):
                    return True
        return False


#: (m, eps, S, replica) of the full replica the spacing search last accepted;
#: only :func:`replicate_certified` given an explicit spacing reads it.
_accepted: Optional[tuple[int, Fraction, PointSet, PointSet]] = None


def choose_epsilon(S: PointSet, m: int) -> Coord:
    """Smallest-effort certified spacing for replicating ``S`` with ``m`` copies.

    Starts at (minimum pairwise coordinate gap) / (4m) and halves until the
    replica passes general position, coordinate distinctness, and both
    certification checks; capped at 64 halvings. Deterministic by
    construction, and guaranteed to terminate because all sufficiently small
    spacings work.

    Each spacing is screened first (:class:`_SpacingScreen`): one the screen
    refutes would fail those checks, so it is halved without building its
    replica. A spacing is accepted only when its full replica passes, so
    the screen changes which replicas are built, never the result. The
    search never reads the full replica a previous search kept.
    """
    return replicate_certified(S, m)[2].epsilon


def replicate_certified(
    S: PointSet, m: int, epsilon: Optional[Coord] = None, total: Optional[int] = None
) -> tuple[PointSet, CopyMap, ReplicationCertificate]:
    """Replace each point by ``m`` copies on a parabolic arc, with a certificate.

    ``epsilon`` defaults to the spacing :func:`choose_epsilon` finds; an
    explicit one, an int or a Fraction, is emitted even when the
    certification checks fail -- the certificate records the outcomes, and
    the spacing as given. ``total`` optionally trims the output to exactly
    that many points by dropping the highest copy numbers of the last
    source points.

    The search keeps the full replica it accepted. A trimmed replica at
    that spacing, whether the search's own or a later call's with an equal
    source, copy count and spacing, is cut from it with its side-mask
    table instead of taking a pass of its own; either way both checks
    certify the trimmed replica from its table.
    """
    global _accepted
    _check_replication_input(S, m, epsilon, total)
    if epsilon is not None:
        full = None
        if _accepted is not None and _accepted[:3] == (m, epsilon, S):
            full = _accepted[3]
        return _replica(S, m, epsilon, total, full)
    gaps = [abs(p.x - q.x) for p, q in combinations(S, 2)]
    gaps += [abs(p.y - q.y) for p, q in combinations(S, 2)]
    eps = Fraction(min(gaps)) / (4 * m) if gaps else Fraction(1, 4 * m)
    screen = _SpacingScreen(S, m)
    for _ in range(65):
        if not screen.refutes(eps):
            try:
                replica = _replica(S, m, eps, None)
            except DegenerateEpsilonError:
                pass
            else:
                if replica[2].certified:
                    _accepted = (m, eps, S, replica[0])
                    return replica if total is None else _replica(S, m, eps, total, replica[0])
        eps /= 2
    raise EpsilonSearchError(f"no certified spacing found for n={len(S)}, m={m}")


def contract_family(
    S2: PointSet, cmap: CopyMap, family: Sequence[Segment]
) -> tuple[Segment, ...]:
    """Contract every copy back to its source point and deduplicate.

    Fails with :class:`SameSourceSegmentError` if some segment joins two
    copies of one source point, since such a segment has no source image.
    """
    _check_copy_map(S2, cmap)
    n2 = len(S2)
    out = set()
    for seg in family:
        if not (0 <= seg.a < n2 and 0 <= seg.b < n2):
            raise ValueError(f"segment {seg.a} {seg.b} out of range for {n2} points")
        sa = cmap.source_of(seg.a)
        sb = cmap.source_of(seg.b)
        if sa == sb:
            raise SameSourceSegmentError(
                f"segment {seg.a} {seg.b} joins two copies of source {sa}"
            )
        out.add(Segment(sa, sb))
    return tuple(sorted(out))
