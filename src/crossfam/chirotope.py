"""The exact chirotope kernel: one table of side masks.

Every orientation and crossing question the solvers, the annealer, the
replication certificate and the CNF assignment ask is answered from here.
A point set reaches it only through ``PointSet.side_masks``, which keeps
its table, ``PointSet.segment_sides`` and ``PointSet.crossing_rows``,
which keep the segment sides and the crossing rows built from that table
beside it, and ``PointSet.subset``, which cuts a subset's
table from its set's with no determinant (``restrict_masks``). The
annealer reads its full state the same way, and between its full reads
keeps lists of its own, rewritten as points move; the replication screen
reads a few lines of a replica it never builds (``pair_masks``).
For integer coordinates of n points the table is a flat list of n^2
bitsets over points: entry ``a*n + b`` (a != b) holds the points c with
orient(a, b, c) > 0, the points left of the directed line a -> b, and the
diagonal entries are 0. In general position every other point lies
strictly on one side, so the entry of (b, a) is the complement of that of
(a, b), and orient(a, b, c) > 0 iff b is in the mask of (c, a) iff a is in
the mask of (b, c).

The full table comes from one rotational sweep over the C(n, 2) pair
directions, O(n^2 log n) work, with floats used only as sort keys whose
order is checked exactly (:func:`side_masks` gives the argument). The
reads of one point's or a few pairs' lines (:func:`point_masks`,
:func:`pair_masks`) take one determinant per triple they read.

Questions about one line and many points are then a few big-int
operations. Rows are bitsets over segments in lexicographic order, the
order of :func:`crossfam.geometry.all_segments`. Segment cd crosses ab iff
c and d lie on opposite sides of ab and the line cd separates a from b.
The first holds iff cd has exactly one endpoint in the mask of (a, b) and
does not end at a or b: those are the segments of the mask's cut, the XOR
of the stars (segments through a point) of its points, less the stars of
a and b. The second holds iff exactly one of a and b is left of c -> d,
which is the XOR of their segment sides (per point, the segments whose
line it is left of). A crossing row is therefore one lookup per four
points in tables of the XORs of four stars, and five mask operations.
The annealer keeps the segment sides beside its table and toggles them
where a triple flipped.
"""

from __future__ import annotations

import struct
from functools import cache, cmp_to_key, partial
from itertools import combinations, compress
from operator import eq, itemgetter
from typing import Iterable, Optional, Sequence

from .errors import NotGeneralPositionError


def side_masks(coords: list[tuple[int, int]]) -> list[int]:
    """Side masks of every ordered pair of an integer coordinate list, by a rotational sweep.

    Each pair runs from tail to head, its (y, x)-smaller point to the
    larger, so its direction lies in [0, pi); the C(n, 2) directions are
    sorted by angle. A line turning through those angles meets the points
    in an order that changes only at a pair's direction, where its tail and
    head are adjacent and swap (the allowable sequence of the set; Goodman
    & Pollack 1980). The sweep starts from the (y, x) order, the order just
    before the angle 0, and at each pair the points beyond it are those
    left of tail -> head: the mask is a suffix bitset of the order, and the
    reversed pair's mask the prefix before it. Past the sort each pair
    costs O(1) big-int operations, so the table takes O(n^2 log n) work,
    where one determinant per triple would take C(n, 3).

    The directions are sorted on the float ``-dx/dy`` (horizontal pairs
    first). Python's int / int is correctly rounded, hence monotone, so
    only pairs with equal keys can be out of exact order, and each such
    neighbour pair is checked with an integer cross product. If one is out
    of order, or a key overflows, the pairs are sorted again by cross
    products alone. Unequal keys order their pairs exactly, by
    monotonicity, and equal ones are ordered by the check, so the table is
    exact. The set is in general position iff no two points
    coincide and no two parallel pairs share a point. Otherwise
    :class:`NotGeneralPositionError` names the first collinear triple in
    lexicographic order, or for two points, the coincident pair.
    """
    n = len(coords)
    if len(set(coords)) < n:
        _raise_degenerate(coords)
    order = sorted(range(n), key=lambda i: (coords[i][1], coords[i][0]))
    ranked = [(*coords[i], i) for i in order]
    horizontal = float("-inf")
    pairs = []
    try:
        for a, (xa, ya, tail) in enumerate(ranked):
            pairs += [((xa - xb) / dy if (dy := yb - ya) else horizontal, tail, head)
                      for xb, yb, head in ranked[a + 1:]]
    except OverflowError:
        ordered = False
    else:
        pairs.sort()
        keys = list(map(itemgetter(0), pairs))
        ties = compress(range(1, len(pairs)), map(eq, keys, keys[1:]))
        ordered = _exactly_ordered(pairs, ties, coords)
    if not ordered:
        # listed tail by tail, so the stable sort keeps one angle's pairs grouped by tail
        pairs = [(0.0, tail, head) for a, tail in enumerate(order) for head in order[a + 1:]]
        pairs.sort(key=cmp_to_key(partial(_angle_order, coords)))
        _exactly_ordered(pairs, range(1, len(pairs)), coords)
    left = [0] * (n * n)
    every = (1 << n) - 1
    bit = [1 << i for i in range(n)]
    pos = [0] * n
    suffix = [0] * (n + 2)  # suffix[k]: the points at positions k and beyond
    beyond = 0
    for k in range(n - 1, -1, -1):
        p = order[k]
        pos[p] = k
        beyond |= bit[p]
        suffix[k] = beyond
    for _, tail, head in pairs:
        k = pos[tail]  # head is at k + 1
        mask = suffix[k + 2]
        left[tail * n + head] = mask
        left[head * n + tail] = every ^ suffix[k]
        suffix[k + 1] = mask | bit[tail]
        pos[tail] = k + 1
        pos[head] = k
    return left


def _angle_order(coords: list[tuple[int, int]], p: tuple, q: tuple) -> int:
    """-1, 0 or 1 as the direction of pair p is before, at or after that of q, exactly."""
    (ax, ay), (bx, by) = coords[p[1]], coords[p[2]]
    (cx, cy), (dx, dy) = coords[q[1]], coords[q[2]]
    cross = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
    return (cross < 0) - (cross > 0)


def _exactly_ordered(pairs: list[tuple], ties: Iterable[int],
                     coords: list[tuple[int, int]]) -> bool:
    """Whether each pair i of ``ties`` is at or after pair i - 1 in exact angular order.

    Raises :class:`NotGeneralPositionError` when two such neighbours are
    parallel with one tail. Three collinear points p, q, r, in (y, x)
    order, make the parallel pairs (p, q) and (p, r), and either sort keeps
    the pairs of one angle grouped by tail (the float sort orders equal
    keys by tail; the exact one is stable, from a list grouped by tail), so
    once the order is exact some neighbours share a tail iff the set has a
    collinear triple.
    """
    for i in ties:
        order = _angle_order(coords, pairs[i - 1], pairs[i])
        if order > 0:
            return False
        if not order and pairs[i - 1][1] == pairs[i][1]:
            _raise_degenerate(coords)
    return True


def _raise_degenerate(coords: list[tuple[int, int]]) -> None:
    """Raise :class:`NotGeneralPositionError` for a set known not to be in general position."""
    n = len(coords)
    for a in range(n - 2):
        ax, ay = coords[a]
        for b in range(a + 1, n - 1):
            ux = coords[b][0] - ax
            uy = coords[b][1] - ay
            for c in range(b + 1, n):
                if ux * (coords[c][1] - ay) == uy * (coords[c][0] - ax):
                    raise NotGeneralPositionError(f"points {(a, b, c)} are collinear", (a, b, c))
    # with no third point, only two coincident points remain
    raise NotGeneralPositionError("points 0 and 1 coincide")


def restrict_masks(left: Sequence[int], n: int, kept: Sequence[int]) -> list[int]:
    """The side-mask table of the points ``kept``, increasing indices into an n-point table.

    Entry ``a*k + b`` of the k-point result is entry ``kept[a]*n + kept[b]``
    with the bits of the dropped points removed, so bit c stands for
    ``kept[c]``: the table :func:`side_masks` gives for the kept points'
    coordinates, with no determinant. The kept entries are packed into one
    int, a field of whole 64-bit words each, and each run of consecutive
    dropped points is cut from every field at once, highest run first, by
    one shift and two masks repeated across the fields. Fields of one word
    pack and unpack through ``struct``.
    """
    if any(b <= a for a, b in zip(kept, kept[1:])) or kept and not 0 <= kept[0] <= kept[-1] < n:
        raise ValueError(f"kept indices must increase within range({n})")
    width = 8 * max(1, (n + 63) // 64)  # bytes per field
    entries = []
    for a in kept:
        row = left[a * n:a * n + n]
        entries += [row[b] for b in kept]
    count = len(entries)
    if width == 8:
        data = struct.pack(f"<{count}Q", *entries)
    else:
        data = b"".join([v.to_bytes(width, "little") for v in entries])
    packed = int.from_bytes(data, "little")
    runs = []  # (first, length) of each run of dropped points, highest first
    last = n
    for p in reversed(kept):
        if p + 1 < last:
            runs.append((p + 1, last - p - 1))
        last = p
    if last:
        runs.append((0, last))
    ones = int.from_bytes((1).to_bytes(width, "little") * count, "little")  # bit 0 of each
    size = n  # bits per field still in use
    for first, length in runs:
        size -= length
        packed = (packed & ones * ((1 << first) - 1)
                  | packed >> length & ones * ((1 << size) - (1 << first)))
    data = packed.to_bytes(width * count, "little")
    if width == 8:
        return list(struct.unpack(f"<{count}Q", data))
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def point_masks(coords: list[tuple[int, int]], p: int) -> Optional[list[int]]:
    """The masks of the pairs (p, b) at the current position of point ``p``.

    Entry b is the bitmask of the points c with orient(p, b, c) > 0; entry
    p is 0. Returns None when ``p`` coincides with another point or a
    triple through it is collinear. One determinant per pair of the other
    points; nothing else is read or written, so this is also the
    general-position test of one new or moved point.
    """
    n = len(coords)
    px, py = coords[p]
    rel = [(x - px, y - py) for x, y in coords]
    masks = [0] * n
    bit = [1 << i for i in range(n)]
    for b in range(n):
        if b == p:
            continue
        ux, uy = rel[b]
        if ux == 0 and uy == 0:
            return None
        mask = masks[b]
        bbit = bit[b]
        for c in range(b + 1, n):
            vx, vy = rel[c]
            det = ux * vy - uy * vx  # orientation (p, b, c); 0 at c == p
            if det > 0:
                mask |= bit[c]
            elif det:
                masks[c] |= bbit
            elif c != p:
                return None
        masks[b] = mask
    return masks


def pair_masks(coords: list[tuple[int, int]],
               pairs: Iterable[tuple[int, int]]) -> Optional[list[int]]:
    """The masks of the listed directed pairs (a, b) of an integer coordinate list.

    Entry i is the bitmask of the points c with orient(a, b, c) > 0 for the
    i-th pair, the entry ``a*n + b`` of :func:`side_masks`. Returns None
    when a listed pair coincides or its line passes through a third point.
    One determinant per pair and point, so a check that reads a few lines
    skips the full table.
    """
    points = list(zip(coords, [1 << i for i in range(len(coords))]))
    out = []
    for a, b in pairs:
        ax, ay = coords[a]
        ux = coords[b][0] - ax
        uy = coords[b][1] - ay
        if not (ux or uy):
            return None
        k = ux * ay - uy * ax  # orient(a, b, c) = ux*cy - uy*cx - k
        mask = 0
        on_line = 0
        for (x, y), bit in points:
            det = ux * y - uy * x
            if det > k:
                mask |= bit
            elif det == k:
                on_line += 1
        if on_line > 2:  # a and b themselves are on the line
            return None
        out.append(mask)
    return out


def update_point_masks(left: list[int], sides: list[int], p: int, masks: list[int]) -> None:
    """Write the masks :func:`point_masks` returned for ``p`` into the table.

    Besides the pairs (p, b) and (b, p), point p changes side only in the
    masks of the pairs (b, c) whose triple with p flipped: p is left of
    b -> c iff c is in the mask of (p, b), so each flipped bit of those
    masks toggles bit p of one other mask. The same flips are written into
    ``sides``, the :func:`segment_sides` of the table: a flipped triple
    (p, b, c) moves c across the line of segment pb, and p across the line
    of segment bc, which is toggled once, from the smaller of b and c.
    """
    n = len(masks)
    pn = p * n
    pbit = 1 << p
    every = (1 << n) - 1
    off = _segment_offsets(n)
    across_p = 0
    for b, new in enumerate(masks):
        flipped = left[pn + b] ^ new
        if not flipped:
            continue
        left[pn + b] = new
        left[b * n + p] = every ^ new ^ pbit ^ (1 << b)
        # bit c > b of ``flipped`` lands on segment (b, c), index off[b] + c
        across_p ^= (flipped >> (b + 1)) << (off[b] + b + 1)
        segment = 1 << (off[p] + b if p < b else off[b] + p)
        bn = b * n
        while flipped:
            low = flipped & -flipped
            c = low.bit_length() - 1
            left[bn + c] ^= pbit
            sides[c] ^= segment
            flipped ^= low
    sides[p] ^= across_p


@cache
def _segment_offsets(n: int) -> tuple[int, ...]:
    """``off[a] + b`` is the lexicographic index of segment (a, b), a < b."""
    return tuple(a * (2 * n - a - 1) // 2 - a - 1 for a in range(n))


@cache
def _stars(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Per point p, the segments through p; per 4 points, the XORs of their stars."""
    off = _segment_offsets(n)
    star = [0] * n
    for a in range(n - 1):
        for b in range(a + 1, n):
            bit = 1 << (off[a] + b)
            star[a] |= bit
            star[b] |= bit
    tables = []
    for base in range(0, n, 4):
        table = [0]
        for s in star[base:base + 4]:
            table += [t ^ s for t in table]
        tables.append(tuple(table))
    return tuple(star), tuple(tables)


def segment_sides(left: Sequence[int], n: int) -> list[int]:
    """Per point p, the bitset of the segments (c, d), c < d, with p left of c -> d.

    p is left of c -> d iff d is left of p -> c, so the bits d > c of the
    mask of (p, c), shifted up to the index ``off[c] + d`` of segment
    (c, d), are the segments from c that p is left of.
    """
    off = _segment_offsets(n)
    first = [o + c + 1 for c, o in enumerate(off)]  # index of segment (c, c + 1)
    sides = []
    for p in range(n):
        pn = p * n
        side = 0
        for c in range(n - 1):
            side |= (left[pn + c] >> (c + 1)) << first[c]
        sides.append(side)
    return sides


def _rows(left: Sequence[int], n: int, sides: Sequence[int],
          pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Bitsets of the segments crossing each segment (a, b) of ``pairs``.

    Segment cd crosses ab iff cd has one endpoint in the mask of (a, b),
    the other on the right of a -> b, and the line cd separates a from b.
    The segments with exactly one endpoint in a point mask form its cut,
    the XOR of the stars of its points, read four points at a time from
    16-entry tables; the cut's segments through a or b are dropped, and
    the separation is ``sides[a] ^ sides[b]``.
    """
    star, tables = _stars(n)
    rows = []
    for a, b in pairs:
        mask = left[a * n + b]
        cut = 0
        for table in tables:
            cut ^= table[mask & 15]
            mask >>= 4
        rows.append(cut & (sides[a] ^ sides[b]) & ~(star[a] | star[b]))
    return rows


def crossing_rows(left: Sequence[int], n: int,
                  sides: Optional[Sequence[int]] = None) -> list[int]:
    """Adjacency bitsets of the crossing graph over all C(n, 2) segments.

    ``sides`` is ``segment_sides(left, n)``, computed here when not given.
    """
    if sides is None:
        sides = segment_sides(left, n)
    return _rows(left, n, sides, combinations(range(n), 2))


def refresh_point_rows(adj: list[int], left: Sequence[int], sides: Sequence[int],
                       n: int, p: int) -> list[tuple[int, int]]:
    """Rebuild the crossings of the segments through ``p`` after it moved.

    ``left`` and ``sides`` already hold the new position. Two segments
    sharing ``p`` never cross, so every changed crossing pairs one segment
    through ``p`` with one avoiding it: the n-1 rows through ``p`` are
    recomputed, and in the other rows only the columns of those segments
    whose crossing flipped are toggled. Returns the (old row, new row) pair
    of each row through ``p`` that changed.
    """
    off = _segment_offsets(n)
    pairs = [(p, q) if p < q else (q, p) for q in range(n) if q != p]
    changed = []
    for (a, b), row in zip(pairs, _rows(left, n, sides, pairs)):
        i = off[a] + b
        flipped = adj[i] ^ row
        if not flipped:
            continue
        changed.append((adj[i], row))
        adj[i] = row
        col = 1 << i
        while flipped:
            low = flipped & -flipped
            adj[low.bit_length() - 1] ^= col
            flipped ^= low
    return changed
