"""The exact chirotope kernel: one table of side masks.

Every orientation and crossing question the solvers, the annealer, the
replication certificate and the CNF assignment ask is answered from here.
A point set reaches it only through ``PointSet.side_masks``, which keeps
its table, and ``PointSet.crossing_rows``, which keeps the crossing rows
built from that table beside it; the annealer alone keeps lists of its own,
rewritten as points move.
For integer coordinates of n points the table is a flat list of n^2
bitsets over points: entry ``a*n + b`` (a != b) holds the points c with
orient(a, b, c) > 0, the points left of the directed line a -> b, and the
diagonal entries are 0. In general position every other point lies
strictly on one side, so the entry of (b, a) is the complement of that of
(a, b), and orient(a, b, c) > 0 iff b is in the mask of (c, a) iff a is in
the mask of (b, c).

Questions about one line and many points are then a few big-int
operations. Segment cd crosses ab iff c and d lie on opposite sides of ab
and the line cd separates a from b, that is, d lies in exactly one of the
masks of (a, c) and (b, c). A crossing row, the bitset of the segments
crossing ab, is therefore one mask operation per point c on either side of
ab. Rows are bitsets over segments in lexicographic order, the order of
:func:`crossfam.geometry.all_segments`.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

from .errors import NotGeneralPositionError


def side_masks(coords: list[tuple[int, int]]) -> list[int]:
    """Side masks of every ordered pair of an integer coordinate list.

    One determinant per sorted triple a < b < c fills the entries with
    a < b, and the reversed pair is the complement. Raises
    :class:`NotGeneralPositionError` naming the first collinear triple in
    lexicographic order.
    """
    n = len(coords)
    left = [0] * (n * n)
    bit = [1 << i for i in range(n)]
    for a in range(n - 1):
        ax, ay = coords[a]
        rel = [(x - ax, y - ay) for x, y in coords]
        an = a * n
        abit = bit[a]
        for b in range(a + 1, n):
            ux, uy = rel[b]
            bn = b * n
            bbit = bit[b]
            row = left[an + b]
            for c in range(b + 1, n):
                vx, vy = rel[c]
                det = ux * vy - uy * vx
                if det > 0:  # c left of a->b, a left of b->c, b right of a->c
                    row |= bit[c]
                    left[bn + c] |= abit
                elif det < 0:  # b left of a->c
                    left[an + c] |= bbit
                else:
                    raise NotGeneralPositionError(
                        f"points {(a, b, c)} are collinear", (a, b, c)
                    )
            left[an + b] = row
    every = (1 << n) - 1
    for a in range(n - 1):
        for b in range(a + 1, n):
            left[b * n + a] = every ^ left[a * n + b] ^ bit[a] ^ bit[b]
    return left


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


def update_point_masks(left: list[int], p: int, masks: list[int]) -> None:
    """Write the masks :func:`point_masks` returned for ``p`` into the table.

    Besides the pairs (p, b) and (b, p), point p changes side only in the
    masks of the pairs (b, c) whose triple with p flipped: p is left of
    b -> c iff c is in the mask of (p, b), so each flipped bit of those
    masks toggles bit p of one other mask.
    """
    n = len(masks)
    pn = p * n
    pbit = 1 << p
    every = (1 << n) - 1
    for b, new in enumerate(masks):
        flipped = left[pn + b] ^ new
        if not flipped:
            continue
        left[pn + b] = new
        left[b * n + p] = every ^ new ^ pbit ^ (1 << b)
        bn = b * n
        while flipped:
            low = flipped & -flipped
            left[bn + low.bit_length() - 1] ^= pbit
            flipped ^= low


@cache
def _segment_offsets(n: int) -> tuple[int, ...]:
    """``off[a] + b`` is the lexicographic index of segment (a, b), a < b."""
    return tuple(a * (2 * n - a - 1) // 2 - a - 1 for a in range(n))


@cache
def _row_layout(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per point c: the mask of the points above c, and ``off[c] + 1``.

    The bits d > c of a mask, shifted left by ``off[c] + 1``, land one
    place above the indices of the segments (c, d); a row is shifted back
    once at the end, since ``off[0]`` is -1.
    """
    every = (1 << n) - 1
    return (tuple(every ^ ((2 << c) - 1) for c in range(n)),
            tuple(o + 1 for o in _segment_offsets(n)))


def _crossing_row(left: Sequence[int], n: int, a: int, b: int) -> int:
    """Bitset of the segments crossing segment (a, b), a < b."""
    above, shift = _row_layout(n)
    an = a * n
    bn = b * n
    lhs = left[an + b]
    rhs = left[bn + a]
    row = 0
    for c in range(n - 1):
        if c == a or c == b:
            continue
        # partners d > c on the other side of ab, with the line cd between a and b
        d = (rhs if lhs >> c & 1 else lhs) & above[c] & (left[an + c] ^ left[bn + c])
        if d:
            row |= d << shift[c]
    return row >> 1


def crossing_rows(left: Sequence[int], n: int) -> list[int]:
    """Adjacency bitsets of the crossing graph over all C(n, 2) segments."""
    return [_crossing_row(left, n, a, b) for a in range(n - 1) for b in range(a + 1, n)]


def refresh_point_rows(adj: list[int], left: list[int], n: int, p: int) -> None:
    """Rebuild the crossings of the segments through ``p`` after it moved.

    ``left`` already holds the masks of the new position. Two segments
    sharing ``p`` never cross, so every changed crossing pairs one segment
    through ``p`` with one avoiding it: the n-1 rows through ``p`` are
    recomputed, and in the other rows only the columns of those segments
    whose crossing flipped are toggled.
    """
    off = _segment_offsets(n)
    for q in range(n):
        if q == p:
            continue
        a, b = (p, q) if p < q else (q, p)
        i = off[a] + b
        row = _crossing_row(left, n, a, b)
        flipped = adj[i] ^ row
        adj[i] = row
        col = 1 << i
        while flipped:
            low = flipped & -flipped
            adj[low.bit_length() - 1] ^= col
            flipped ^= low
