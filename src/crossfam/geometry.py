"""Exact planar primitives: orientation, proper crossing, general position.

All predicates run on arbitrary-precision rationals (plain ``int`` or
``fractions.Fraction``), so results are exact for inputs of any size. No
predicate is decided in floating point: the one float is the sort key of
the side-mask sweep in :mod:`crossfam.chirotope`, correctly rounded so that
it can misorder only equal keys, and those are checked there with integer
cross products. Crossing structure is combinatorially fragile and the
replication construction relies on arbitrarily small spacings, which rules
out approximate arithmetic.

``PointSet.side_masks`` is the one way a point set reaches the kernel of
:mod:`crossfam.chirotope`; it is kept with the set, so every question asked
of one set shares one pass of the kernel. Beside it the set keeps its
segment sides and crossing rows, ``PointSet.segment_sides`` and
``PointSet.crossing_rows``, so the crossing graph of one set is built once
however many questions are asked of it. ``PointSet.subset``
cuts a subset's table from its set's, with no pass of its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, starmap
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .chirotope import crossing_rows, restrict_masks, segment_sides, side_masks
from .errors import InvalidSegmentError, NotGeneralPositionError

Coord = Union[int, Fraction]

_EXACT_TYPES = (int, Fraction)


class Orientation(enum.IntEnum):
    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


@dataclass(frozen=True)
class Point:
    """A point with exact rational coordinates."""

    x: Coord
    y: Coord

    def __post_init__(self):
        for v in (self.x, self.y):
            # Floats would silently poison every predicate downstream, and a
            # bool would be written as True or False, which no parser reads.
            if not isinstance(v, _EXACT_TYPES) or isinstance(v, bool):
                raise TypeError(f"exact coordinate required, got {type(v).__name__}")


@dataclass(frozen=True)
class PointSet:
    """An ordered, immutable sequence of points; indices 0..n-1 are the labels."""

    points: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    @classmethod
    def from_coords(cls, coords: Iterable[tuple[Coord, Coord]]) -> "PointSet":
        return cls(tuple(Point(x, y) for x, y in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    @cached_property
    def side_masks(self) -> tuple[int, ...]:
        """The kernel's side-mask table, computed on first read and kept (not a field).

        Outside general position every read raises :class:`NotGeneralPositionError`.
        """
        return tuple(side_masks(integer_coordinates(self)))

    def subset(self, kept: Sequence[int]) -> "PointSet":
        """The points at the increasing indices ``kept``, carrying their side-mask table.

        The table is this set's cut to the kept points by
        :func:`crossfam.chirotope.restrict_masks`, so the subset's
        ``side_masks`` costs no determinant; a subset of a set in general
        position is in general position. Reads this set's ``side_masks``.
        """
        left = restrict_masks(self.side_masks, len(self), kept)
        out = PointSet(tuple(self.points[i] for i in kept))
        vars(out)["side_masks"] = tuple(left)  # where the cached_property keeps it
        return out

    @cached_property
    def segment_sides(self) -> tuple[int, ...]:
        """Per point, the segments whose line it is left of, kept like ``side_masks``.

        The sides :func:`crossfam.chirotope.segment_sides` reads from the
        table, from which ``crossing_rows`` is built. Outside general
        position every read raises :class:`NotGeneralPositionError`.
        """
        return tuple(segment_sides(self.side_masks, len(self)))

    @cached_property
    def crossing_rows(self) -> tuple[int, ...]:
        """The crossing graph's adjacency rows over :func:`all_segments`, kept like ``side_masks``.

        Outside general position every read raises :class:`NotGeneralPositionError`.
        """
        return tuple(crossing_rows(self.side_masks, len(self), self.segment_sides))


@dataclass(frozen=True, order=True)
class Segment:
    """An unordered pair of point indices, stored with ``a < b``."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"degenerate segment ({self.a}, {self.b})")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    def touches(self, index: int) -> bool:
        return index == self.a or index == self.b

    def shares_endpoint(self, other: "Segment") -> bool:
        return other.touches(self.a) or other.touches(self.b)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Exact sign of the cross product (q - p) x (r - p), on ints, Fractions or a mix."""
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if d > 0:
        return Orientation.COUNTERCLOCKWISE
    if d < 0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def segments_cross(S: PointSet, s1: Segment, s2: Segment) -> bool:
    """True iff the two segments intersect in their relative interiors.

    Segments sharing an endpoint never cross. Collinear triples (possible
    only outside general position) count as non-crossing, since an interior
    crossing requires strictly opposite orientations on both sides. The four
    endpoints are scaled to integers once (:func:`_integer_points`).
    """
    p, q, r, t = _integer_points(S, (s1.a, s1.b, s2.a, s2.b))
    return _crosses(p, q, r, t)


def _integer_points(S: PointSet, indices: Sequence[int]) -> list[tuple[int, int]]:
    """Integer coordinates of the points at ``indices``, each axis scaled once.

    Each axis is scaled by the least common denominator of the listed
    points, the positive map of :func:`integer_coordinates`, so every
    orientation among them keeps its sign. Raises
    :class:`InvalidSegmentError` for the first index out of range, in
    the order given.
    """
    n = len(S)
    for i in indices:
        if not 0 <= i < n:
            raise InvalidSegmentError(f"point index {i} out of range for {n} points")
    return _scaled([S.points[i] for i in indices])


def _crosses(p: tuple[int, int], q: tuple[int, int],
            r: tuple[int, int], t: tuple[int, int]) -> bool:
    """True iff segment pq crosses segment rt in their interiors, on integer points.

    r and t lie strictly on opposite sides of the line pq, and p and q of
    the line rt: four cross-product signs, none zero. Segments sharing an
    endpoint put it on the other's line, so they never cross.
    """
    px, py = p
    ux, uy = q[0] - px, q[1] - py
    if (ux * (r[1] - py) - uy * (r[0] - px)) * (ux * (t[1] - py) - uy * (t[0] - px)) >= 0:
        return False
    rx, ry = r
    vx, vy = t[0] - rx, t[1] - ry
    return (vx * (py - ry) - vy * (px - rx)) * (vx * (q[1] - ry) - vy * (q[0] - rx)) < 0


def is_general_position(S: PointSet) -> bool:
    """True iff no two points coincide and no three are collinear, by the kernel.

    Sets of 0 and 1 points are in general position.
    """
    try:
        S.side_masks
    except NotGeneralPositionError:
        return False
    return True


def has_distinct_coordinates(S: PointSet) -> bool:
    """True iff all x-coordinates are pairwise distinct and likewise all y."""
    n = len(S)
    return len({p.x for p in S}) == n and len({p.y for p in S}) == n


def integer_coordinates(S: PointSet) -> list[tuple[int, int]]:
    """Integer coordinates with the same order type as ``S``.

    Each axis is scaled by the least common denominator of that axis, a
    positive diagonal map, so every triple orientation and every crossing
    is preserved exactly. Heavy predicate loops run on the result.
    """
    return _scaled(S.points)


def _scaled(points: Sequence[Point]) -> list[tuple[int, int]]:
    """``points`` with each axis multiplied by the lcm of its denominators, as ints."""
    lx = lcm(*[p.x.denominator for p in points])
    ly = lcm(*[p.y.denominator for p in points])
    return [(p.x.numerator * (lx // p.x.denominator), p.y.numerator * (ly // p.y.denominator))
            for p in points]


def to_integer_coordinates(S: PointSet) -> PointSet:
    """Order-type-preserving copy of ``S`` with plain integer coordinates."""
    return PointSet.from_coords(integer_coordinates(S))


def normalize_coordinates(S: PointSet) -> PointSet:
    """Make all x- and all y-coordinates pairwise distinct, preserving the order type.

    Applies the shear (x, y) -> (x + t*y, y + t*x) with rational t found by
    halving from 1. Each coordinate collision between a pair of points rules
    out at most one value of t, so a valid t exists and the loop terminates;
    t < 1 keeps the determinant 1 - t^2 positive, hence every triple
    orientation is unchanged. Returns ``S`` itself when already distinct.
    """
    if len({(p.x, p.y) for p in S}) != len(S):
        raise NotGeneralPositionError("duplicate points cannot be sheared apart")
    if has_distinct_coordinates(S):
        return S
    t = Fraction(1)
    n = len(S)
    for _ in range(2 * n * n + 8):
        t = t / 2
        mapped = PointSet(tuple(Point(p.x + t * p.y, p.y + t * p.x) for p in S))
        if has_distinct_coordinates(mapped):
            return mapped
    raise NotGeneralPositionError("no shear parameter found; input is degenerate")


def convex_position_points(n: int) -> PointSet:
    """n integer points in convex position, labeled left to right.

    Points sit on the parabola (i, i^2), so no three are collinear and the
    hull order coincides with the index order.
    """
    if n < 0:
        raise ValueError("point count must be non-negative")
    return PointSet.from_coords((i, i * i) for i in range(n))


def all_segments(n: int) -> tuple[Segment, ...]:
    """All C(n, 2) segments over point labels 0..n-1, in lexicographic order."""
    return tuple(starmap(Segment, combinations(range(n), 2)))
