"""The exact chirotope kernel: one table of triple orientation signs.

Every orientation and crossing question the solvers, the annealer and the
CNF assignment ask is answered from here. For integer coordinates of n
points the table is a flat list of n^3 entries; entry ``a*n*n + b*n + c``
with ``a < b < c`` holds +1 when the triple turns counterclockwise and -1
when it turns clockwise. Other entries are unused.

In general position four points a < b < c < d have at most one crossing
pairing, and their four signs s_abc, s_abd, s_acd, s_bcd decide which:

* ab x cd iff s_abc != s_abd and s_acd != s_bcd;
* ac x bd iff s_abc == s_acd and s_abd == s_bcd;
* ad x bc iff s_abd != s_acd and s_abc != s_bcd.

Crossing graphs are therefore built per 4-point subset rather than per pair
of segments. Rows are bitsets over segments in lexicographic order, the
order of :func:`crossfam.geometry.all_segments`.

The same signs also come as side masks, bitsets over points: entry
``a*n + b`` of :func:`side_masks` holds the points c with orient(a, b, c) > 0,
the points left of the directed line a -> b. Questions about one line and
many points, such as the replication certificate's, are then a few big-int
operations: for instance segment cd crosses ab iff c and d lie on opposite
sides of ab and d lies in exactly one of the masks of (a, c) and (b, c).
"""

from __future__ import annotations

from itertools import combinations

from .errors import NotGeneralPositionError


def orientation_table(coords: list[tuple[int, int]]) -> list[int]:
    """Sign table of every sorted triple of an integer coordinate list.

    Raises :class:`NotGeneralPositionError` naming the first collinear
    triple in lexicographic order.
    """
    n = len(coords)
    nn = n * n
    table = [0] * (nn * n)
    for a in range(n - 2):
        ax, ay = coords[a]
        for b in range(a + 1, n - 1):
            ux = coords[b][0] - ax
            uy = coords[b][1] - ay
            base = a * nn + b * n
            for c in range(b + 1, n):
                cx, cy = coords[c]
                det = ux * (cy - ay) - uy * (cx - ax)
                if det > 0:
                    table[base + c] = 1
                elif det < 0:
                    table[base + c] = -1
                else:
                    raise NotGeneralPositionError(f"points {(a, b, c)} are collinear")
    return table


def side_masks(coords: list[tuple[int, int]]) -> list[int]:
    """Side masks of every ordered pair of an integer coordinate list.

    Entry ``a*n + b`` (a != b) is the bitmask of the points c with
    orient(a, b, c) > 0; diagonal entries are 0. One determinant per sorted
    triple a < b < c fills the entries with a < b, and the reversed pair is
    the complement: every other point lies strictly on one side. Raises
    :class:`NotGeneralPositionError` naming the first collinear triple in
    lexicographic order, as :func:`orientation_table` does.
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


def triple_sign(table: list[int], n: int, a: int, b: int, c: int) -> int:
    """Sign of the sorted triple a < b < c in a table over n points."""
    return table[(a * n + b) * n + c]


def update_point_signs(table: list[int], coords: list[tuple[int, int]], p: int) -> bool:
    """Rewrite the table entries of the C(n-1, 2) triples through point ``p``.

    Returns False as soon as ``p`` coincides with another point or a triple
    through it is collinear; the table is then partly rewritten, and
    updating the previous position of ``p`` restores it.
    """
    n = len(coords)
    nn = n * n
    px, py = coords[p]
    for b in range(n - 1):
        if b == p:
            continue
        ux = coords[b][0] - px
        uy = coords[b][1] - py
        if ux == 0 and uy == 0:
            return False
        for c in range(b + 1, n):
            if c == p:
                continue
            cx, cy = coords[c]
            det = ux * (cy - py) - uy * (cx - px)  # orientation (p, b, c)
            if det == 0:
                return False
            sign = 1 if det > 0 else -1
            if p < b:
                table[p * nn + b * n + c] = sign
            elif p < c:
                table[b * nn + p * n + c] = -sign
            else:
                table[b * nn + c * n + p] = sign
    return True


def _segment_offsets(n: int) -> list[int]:
    """``off[a] + b`` is the lexicographic index of segment (a, b), a < b."""
    return [a * (2 * n - a - 1) // 2 - a - 1 for a in range(n)]


def _add_crossings(adj, table, n, off, bit, a, b, c, ds) -> None:
    """Add the crossing pair of every 4-subset a < b < c < d, d in ``ds``."""
    nn = n * n
    abo = a * nn + b * n
    aco = a * nn + c * n
    bco = b * nn + c * n
    s_abc = table[abo + c]
    oa, ob, oc = off[a], off[b], off[c]
    ab, ac, bc = oa + b, oa + c, ob + c
    # The three rules of the module docstring, specialised to signs in {-1, +1}.
    for d in ds:
        s_abd = table[abo + d]
        s_acd = table[aco + d]
        s_bcd = table[bco + d]
        if s_abc != s_abd:
            if s_acd == s_bcd:
                continue
            i, j = ab, oc + d
        elif s_acd != s_bcd:
            continue
        elif s_acd == s_abc:
            i, j = ac, ob + d
        else:
            i, j = bc, oa + d
        adj[i] |= bit[j]
        adj[j] |= bit[i]


def crossing_rows(table: list[int], n: int) -> list[int]:
    """Adjacency bitsets of the crossing graph over all C(n, 2) segments."""
    m = n * (n - 1) // 2
    adj = [0] * m
    off = _segment_offsets(n)
    bit = [1 << i for i in range(m)]
    for a, b, c in combinations(range(n - 1), 3):
        _add_crossings(adj, table, n, off, bit, a, b, c, range(c + 1, n))
    return adj


def refresh_point_rows(adj: list[int], table: list[int], n: int, p: int) -> None:
    """Rebuild the crossings of the segments through ``p`` after it moved.

    Only the C(n-1, 3) 4-subsets containing ``p`` are read: two segments
    sharing ``p`` never cross, so every changed crossing pairs one segment
    through ``p`` with one segment avoiding it.
    """
    off = _segment_offsets(n)
    bit = [1 << i for i in range(len(adj))]
    for q in range(n):
        if q == p:
            continue
        i = off[min(p, q)] + max(p, q)
        row = adj[i]
        adj[i] = 0
        keep = ~bit[i]
        while row:
            low = row & -row
            adj[low.bit_length() - 1] &= keep
            row ^= low
    others = [q for q in range(n) if q != p]
    for q, r in combinations(others, 2):
        a, b, c = sorted((p, q, r))
        _add_crossings(adj, table, n, off, bit, a, b, c, range(c + 1, n))
    for a, b, c in combinations(range(p), 3):
        _add_crossings(adj, table, n, off, bit, a, b, c, (p,))
