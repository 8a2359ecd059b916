import random
import sys
from itertools import combinations

import pytest

from crossfam import chirotope
from crossfam.geometry import PointSet, all_segments, segments_cross
from crossfam.search import random_general_position


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def kernel_passes(monkeypatch):
    """Coordinate tuples of every ``chirotope.side_masks`` pass, in call order.

    Wraps the kernel in every crossfam module that binds it, so a pass is
    counted whichever module makes it.
    """
    real = chirotope.side_masks
    passes = []

    def counted(coords):
        passes.append(tuple(coords))
        return real(coords)

    for name, module in list(sys.modules.items()):
        if name.startswith("crossfam") and getattr(module, "side_masks", None) is real:
            monkeypatch.setattr(module, "side_masks", counted)
    return passes


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


# 9-point configuration with no 3-crossing family, recovered by the bundled
# annealer and re-verified by both exact solvers at package time.
NINE_POINT_CF2 = (
    (-28, -5), (-61, -4), (12, 50), (24, -16), (-17, 9),
    (-29, 2), (72, -44), (-77, -9), (5, 17),
)
