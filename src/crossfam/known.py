"""What is known about cf(n), the minimum over all n-point sets in general
position of the maximum crossing-family size, with each fact stored once.

Lower bounds are thresholds (``KNOWN_VALUES``). Upper bounds come from the
extremal library of (k, s) entries, s-point sets with no (k+1)-crossing
family: the bundled sets of :mod:`crossfam.store` supply their own entries
and the others are cited. Subsets and replication turn an entry into
cf(n) <= k * ceil(n / s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .store import bundled_names, load_bundled


@dataclass(frozen=True)
class KnownValue:
    """Every set of at least ``n_lo`` points has a crossing family of size ``lower``."""

    n_lo: int
    lower: int
    provenance: str


KNOWN_VALUES: tuple[KnownValue, ...] = (
    KnownValue(2, 1, "any two points span a segment"),
    KnownValue(5, 2, "K5 is not planar, so every 5 points span a crossing pair"),
    KnownValue(10, 3, "exhaustive check of all 10-point order types forces a 3-crossing family"),
    KnownValue(15, 4, "computer-assisted exhaustive extension forces a 4-crossing family "
                      "on 15 points (arXiv:2109.10705)"),
)

#: Library entries without a bundled set, (k, point count) -> source.
_CITED: dict[tuple[int, int], str] = {
    **dict.fromkeys([(5, 25), (6, 29), (7, 34), (9, 45), (10, 50)],
                    "no source recorded in this repository"),
    (8, 41): "arXiv:2109.10705",
}

#: (k, point count) -> source of every library entry, in ascending order.
_LIBRARY_SOURCES: dict[tuple[int, int], str] = dict(sorted({
    **_CITED,
    **{(cf, len(S)): f"bundled set {name}"
       for name in bundled_names() for S, cf in [load_bundled(name)]},
}.items()))

#: The (k, point count) pairs of the largest known point sets whose maximum
#: crossing family has size k (optimal for k <= 3).
DEFAULT_EXTREMAL_LIBRARY: tuple[tuple[int, int], ...] = tuple(_LIBRARY_SOURCES)


def bound_details(
    n: int, library: Sequence[tuple[int, int]] = DEFAULT_EXTREMAL_LIBRARY
) -> tuple[int, Optional[tuple[int, int]]]:
    """Best replication upper bound and the library entry achieving it.

    Each entry (k, s) of ``library`` certifies that every set of n points
    has a subset or replication witness forcing cf(n) <= k * ceil(n / s)
    (subsets of the witness set cover n <= s). The trivial cap floor(n/2)
    from endpoint disjointness also competes; when it alone wins the entry
    is ``None``.
    """
    if not library:
        raise ValueError("empty bound library")
    if n < 1:
        raise ValueError("point count must be positive")
    best = n // 2
    winner: Optional[tuple[int, int]] = None
    for k, size in library:
        if k < 1 or size < 1:
            raise ValueError(f"bad library entry ({k}, {size})")
        value = k * -(-n // size)
        if value < best or (value == best and winner is None):
            best = value
            winner = (k, size)
    return best, winner


def best_known_upper_bound(
    n: int, library: Sequence[tuple[int, int]] = DEFAULT_EXTREMAL_LIBRARY
) -> int:
    """min over the library of k * ceil(n / s), capped by floor(n / 2)."""
    return bound_details(n, library)[0]


def known_range(n: int) -> KnownValue:
    """The largest lower-bound threshold that applies to ``n``."""
    if n < 2:
        raise ValueError("cf(n) is defined for n >= 2")
    return [entry for entry in KNOWN_VALUES if entry.n_lo <= n][-1]


def known_bounds(n: int) -> tuple[int, int, KnownValue]:
    """(lower, upper, threshold entry) for cf(n); lower == upper when proven exactly."""
    entry = known_range(n)
    return entry.lower, best_known_upper_bound(n), entry


def entry_source(entry: Optional[tuple[int, int]]) -> Optional[str]:
    """The bundled set or citation behind a library entry of :func:`bound_details`.

    ``None`` stands for the floor(n/2) endpoint cap, which needs no source.
    """
    return None if entry is None else _LIBRARY_SOURCES[entry]


def known_provenance(n: int) -> str:
    """Where the two bounds of :func:`known_bounds` come from."""
    upper, entry = bound_details(n)
    source = "the floor(n/2) endpoint cap"
    if entry is not None:
        k, size = entry
        source = f"a {size}-point set with no {k + 1}-crossing family ({entry_source(entry)})"
        if n > size:
            source = f"{-(-n // size)} copies of {source}"
    return f"{known_range(n).provenance}; upper bound {upper} from {source}"
