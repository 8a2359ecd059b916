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

Both checks read the replica's ``PointSet.side_masks``, the one way a point
set reaches the kernel; that one pass is also the replica's general-position
check, and the replica keeps it for its crossing graph. Cluster isolation is
a few mask operations per intra-cluster segment and outside point, and copy
order one subset test per line through two copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import (
    DegenerateEpsilonError,
    EpsilonSearchError,
    NotGeneralPositionError,
    SameSourceSegmentError,
)
from .geometry import (
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
        return tuple(i for i, (src, _) in enumerate(self.entries) if src == source)


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


def _check_replication_input(S: PointSet, m: int, epsilon: Optional[Coord]) -> None:
    """Reject a copy count, a given spacing or a source set unfit for replication."""
    if m < 1:
        raise ValueError("copy count must be at least 1")
    if epsilon is not None and Fraction(epsilon) <= 0:
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
    S: PointSet, m: int, epsilon: Coord, total: Optional[int]
) -> tuple[PointSet, CopyMap, ReplicationCertificate]:
    """Replicate a checked source and certify the replica from one side-mask pass.

    A spacing that breaks general position or coordinate distinctness
    raises :class:`DegenerateEpsilonError`.
    """
    eps = Fraction(epsilon)
    counts = _copy_counts(len(S), m, total)
    points: list[Point] = []
    entries: list[tuple[int, int]] = []
    for src, p in enumerate(S):
        for i in range(counts[src]):
            step = i * eps
            points.append(Point(p.x + step, p.y + step * step))
            entries.append((src, i))
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


def verify_copy_order(S: PointSet, S2: PointSet, cmap: CopyMap) -> bool:
    """Exhaustive check that copy clusters respect the vertical order of their sources.

    For sources p above q, every line through two distinct copies of p must
    pass strictly above every copy of q; symmetrically when p is below q.
    ``S2`` must be in general position and ``cmap`` must map it onto ``S``.

    A point lies strictly below the line through copies u, v with
    x_u < x_v iff it lies left of v -> u, so every copy of a lower source
    must be in the side mask of (v, u).
    """
    _check_copy_map(S2, cmap)
    if cmap.source_n != len(S):
        raise ValueError(f"copy map has {cmap.source_n} sources, source set has {len(S)} points")
    left = S2.side_masks
    n2 = len(S2)
    lower = 0  # copies of every source below the current one
    # sources have pairwise distinct y, as replication requires
    for src in sorted(range(len(S)), key=lambda i: S[i].y):
        cluster = cmap.copies_of(src)
        for u, v in combinations(cluster, 2):
            if S2[u].x > S2[v].x:
                u, v = v, u
            if lower & ~left[v * n2 + u]:
                return False
        for i in cluster:
            lower |= 1 << i
    return True


def choose_epsilon(S: PointSet, m: int) -> Coord:
    """Smallest-effort certified spacing for replicating ``S`` with ``m`` copies.

    Starts at (minimum pairwise coordinate gap) / (4m) and halves until the
    replica passes general position, coordinate distinctness, and both
    certification checks; capped at 64 halvings. Deterministic by
    construction, and guaranteed to terminate because all sufficiently small
    spacings work.
    """
    return replicate_certified(S, m)[2].epsilon


def replicate_certified(
    S: PointSet, m: int, epsilon: Optional[Coord] = None, total: Optional[int] = None
) -> tuple[PointSet, CopyMap, ReplicationCertificate]:
    """Replace each point by ``m`` copies on a parabolic arc, with a certificate.

    ``epsilon`` defaults to the spacing :func:`choose_epsilon` finds; an
    explicit one is emitted even when the certification checks fail -- the
    certificate records the outcomes. ``total`` optionally trims the output
    to exactly that many points by dropping the highest copy numbers of the
    last source points.
    """
    _check_replication_input(S, m, epsilon)
    if epsilon is not None:
        return _replica(S, m, epsilon, total)
    gaps = [abs(p.x - q.x) for p, q in combinations(S, 2)]
    gaps += [abs(p.y - q.y) for p, q in combinations(S, 2)]
    eps = Fraction(min(gaps)) / (4 * m) if gaps else Fraction(1, 4 * m)
    for _ in range(65):
        try:
            replica = _replica(S, m, eps, None)
        except DegenerateEpsilonError:
            eps /= 2
            continue
        if replica[2].certified:
            return replica if total is None else _replica(S, m, eps, total)
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
