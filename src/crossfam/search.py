"""Simulated annealing over integer point configurations.

The objective is the exact number of k-crossing families. It is counted in
full at the start; after that each move adds only the difference it makes.
Every drift guard counts it in full again, and so does the final recount of
the best set. Segments sharing an endpoint never cross, so every family
that a move of point p creates or destroys holds exactly one segment s
through p, and the other k-1 segments form a clique in the crossing
neighbourhood of s before or after the move. Cliques in both
neighbourhoods cancel, so only the cliques meeting a neighbour that s
gained or lost are counted.

The state is the side-mask table of :mod:`crossfam.chirotope`, the
segment sides read from it (per point, the segments whose line it is left
of) and the crossing rows; it is read in full from a ``PointSet`` at the
start and by a drift guard every 4096 iterations. A move computes the n-1
masks through the moved point, which are also its general-position test;
when they equal the old ones the table, the crossing graph and the
objective are unchanged and the move costs no count at all. Otherwise the
table and the segment sides are rewritten where a triple through the
point flipped, and only the n-1 crossing rows through it are rebuilt. A
rejected move restores the tables and the coordinates copied before it;
a Ctrl-C before the verdict restores the coordinates.
States live on an integer grid so every predicate stays exact and
checkpoints serialize losslessly.

Randomness comes from ``random.Random`` (the seedable, platform-independent
Mersenne Twister in the standard library); displacement offsets are drawn
as centered binomials via ``getrandbits``, a discretized Gaussian built from
integer operations only. Identical configs therefore reproduce identical
runs bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Callable, Optional

from .chirotope import point_masks, refresh_point_rows, update_point_masks
from .crossing import _count_cliques_meeting, count_k_families
from .errors import NotGeneralPositionError, RetryExhaustedError
from .geometry import PointSet, normalize_coordinates
from .replication import replicate_certified

TraceRow = tuple[int, float, int, int]

_CHECK_INTERVAL = 4096  # full recount guard frequency
_MAX_RETRIES = 100
# each offset draws 4 sigma^2 random bits (50 MB at the cap); from about
# 23,170 on the bit count no longer fits the C int ``getrandbits`` takes
_MAX_SIGMA = 10_000


@dataclass(frozen=True)
class SearchConfig:
    """Annealing schedule and problem parameters."""

    n: int
    k: int
    seed: int
    iterations: int
    initial_temperature: float = 1.0
    cooling_rate: float = 0.9999
    step_sigma: float = 2.0
    grid_bound: int = 0  # 0 = default n*n

    def __post_init__(self):
        for f in fields(self):
            # format_search_config writes str(value), and the parser reads back
            # an int, or in a float field a decimal, but not a bool's True
            value = getattr(self, f.name)
            kinds = int if f.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{f.name} must be {f.type}, got {type(value).__name__}")
            if f.type == "float" and isinstance(value, int) and abs(value) > 2 ** 53:
                # above 2**53 the float its digits are read back as may differ from it
                raise ValueError(f"{f.name} given as an int must be at most 2**53")
        if self.grid_bound == 0:
            object.__setattr__(self, "grid_bound", self.n * self.n)
        for f in fields(self):
            if f.type == "int":
                try:  # str meets the digit limit the parser's int meets
                    str(getattr(self, f.name))
                except ValueError:
                    raise ValueError(f"{f.name} has too many digits to write") from None
        if self.k < 1 or self.n < 2 * self.k:
            raise ValueError(f"need n >= 2k, got n={self.n}, k={self.k}")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0 < self.cooling_rate < 1:
            raise ValueError("cooling rate must lie strictly between 0 and 1")
        if not 0 < self.initial_temperature < math.inf:
            raise ValueError("initial temperature must be positive and finite")
        if not 0 < self.step_sigma < math.inf:
            raise ValueError("step sigma must be positive and finite")
        if self.grid_bound < self.n * self.n:
            raise ValueError(f"grid bound must be at least n^2 = {self.n * self.n}")
        if self.step_sigma > self.grid_bound:
            # a wider step only clamps to the grid edge
            raise ValueError(f"step sigma must not exceed the grid bound {self.grid_bound}")
        _check_sigma(self.step_sigma, "step sigma")


@dataclass(frozen=True)
class SearchState:
    """Result of an annealing run; the trace logs one row per iteration."""

    current: PointSet
    best: PointSet
    best_objective: int
    trace: tuple[TraceRow, ...]


def _check_sigma(sigma: float, name: str) -> None:
    """Reject an offset width above ``_MAX_SIGMA``: its draw is too costly or fails."""
    if sigma > _MAX_SIGMA:
        raise ValueError(f"{name} must not exceed {_MAX_SIGMA}")


def _discrete_gauss(rng: random.Random, sigma: float) -> int:
    """Centered binomial offset with variance ~ sigma^2, integer arithmetic only."""
    half = max(1, round(2 * sigma * sigma))
    return rng.getrandbits(2 * half).bit_count() - half


def random_general_position(n: int, rng: random.Random, bound: int) -> PointSet:
    """Uniform integer points in [-bound, bound]^2, resampled into general position."""
    if n >= 1 and bound < 1:
        raise ValueError("bound must be positive")
    coords: list[tuple[int, int]] = []
    for i in range(n):
        for _ in range(_MAX_RETRIES):
            coords.append((rng.randint(-bound, bound), rng.randint(-bound, bound)))
            if point_masks(coords, i) is not None:
                break
            coords.pop()
        else:
            raise RetryExhaustedError(f"could not place point {i} on the [{-bound},{bound}] grid")
    return PointSet.from_coords(coords)


def _move(
    coords: list[tuple[int, int]],
    rng: random.Random,
    sigma: float,
    grid_bound: Optional[int],
    max_retries: int,
) -> tuple[int, list[int]]:
    """Move one uniformly chosen point in place by a discretized Gaussian offset.

    Draws the index, then the x and y offsets, clamps to the grid when
    ``grid_bound`` is given and redraws a move that changes nothing. A move
    that breaks general position is undone in ``coords`` and redrawn, up to
    ``max_retries`` tries. Returns the moved index and its
    :func:`~crossfam.chirotope.point_masks` at the new position.
    """
    for _ in range(max_retries):
        idx = rng.randrange(len(coords))
        old = coords[idx]
        x = old[0] + _discrete_gauss(rng, sigma)
        y = old[1] + _discrete_gauss(rng, sigma)
        if grid_bound is not None:
            x = max(-grid_bound, min(grid_bound, x))
            y = max(-grid_bound, min(grid_bound, y))
        if (x, y) == old:
            continue
        coords[idx] = (x, y)
        masks = point_masks(coords, idx)
        if masks is not None:
            return idx, masks
        coords[idx] = old
    raise RetryExhaustedError(f"no general-position move found in {max_retries} tries")


def perturb(
    S: PointSet,
    sigma: float,
    rng: random.Random,
    grid_bound: Optional[int] = None,
    max_retries: int = _MAX_RETRIES,
) -> PointSet:
    """Displace one uniformly chosen point by a discretized Gaussian offset.

    Proposals violating general position are resampled (fresh point choice
    and offset) up to ``max_retries`` times. ``sigma = 0`` returns the input
    unchanged; a negative or non-finite ``sigma``, or one above 10,000,
    raises ValueError.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be non-negative and finite")
    _check_sigma(sigma, "sigma")
    if sigma == 0:
        return S
    coords = [(int(p.x), int(p.y)) for p in S]
    if PointSet.from_coords(coords) != S:
        raise ValueError("perturbation requires integer coordinates")
    _move(coords, rng, sigma, grid_bound, max_retries)
    return PointSet.from_coords(coords)


def _objective_delta(adj: list[int], changed: list[tuple[int, int]], k: int) -> int:
    """Change in the number of k-cliques made by one point's move.

    ``adj`` is the crossing graph after the move and ``changed`` the (old
    row, new row) pairs :func:`refresh_point_rows` returned for it. Every
    family that changes holds one segment s through the moved point; the
    rest is a (k-1)-clique of segments avoiding that point, whose crossings
    are the same before and after. So the change at s is the cliques of its
    new neighbourhood that meet a gained neighbour minus the cliques of its
    old neighbourhood that meet a lost one.
    """
    delta = 0
    for old, new in changed:
        delta += _count_cliques_meeting(adj, k - 1, new, new & ~old)
        delta -= _count_cliques_meeting(adj, k - 1, old, old & ~new)
    return delta


def _state(S: PointSet, k: int) -> tuple[list[int], list[int], list[int], int]:
    """Side masks, segment sides, crossing rows and k-family count of ``S``, from its tables."""
    return (list(S.side_masks), list(S.segment_sides), list(S.crossing_rows),
            count_k_families(S, k))


def anneal(
    cfg: SearchConfig,
    initial: PointSet,
    on_improve: Optional[Callable[[int, int], None]] = None,
) -> SearchState:
    """Metropolis search minimizing the number of k-crossing families.

    Exponential cooling, single-point moves, early exit at objective zero.
    Unless the initial objective is already zero, every initial point must
    lie on the grid ``[-grid_bound, grid_bound]^2``.
    A KeyboardInterrupt stops the loop cleanly and returns the state so far;
    a move still awaiting its verdict is undone, so ``current`` is the set
    of the last trace row.
    ``on_improve(iteration, best_objective)`` fires when the best improves.
    """
    if len(initial) != cfg.n:
        raise ValueError(f"initial set has {len(initial)} points, config expects {cfg.n}")
    coords = [(int(p.x), int(p.y)) for p in initial]
    if PointSet.from_coords(coords) != initial:
        raise ValueError("initial set must have integer coordinates")
    try:
        left, sides, adj, current_obj = _state(initial, cfg.k)
    except NotGeneralPositionError:
        raise ValueError("initial set must be in general position") from None

    rng = random.Random(cfg.seed)
    n = cfg.n
    best = list(coords)
    best_obj = current_obj
    temperature = cfg.initial_temperature
    trace: list[TraceRow] = [(0, temperature, current_obj, best_obj)]

    if best_obj > 0:
        # Moves clamp to the grid, so a point outside it would jump on its first move.
        for x, y in coords:
            if max(abs(x), abs(y)) > cfg.grid_bound:
                raise ValueError(f"initial point ({x}, {y}) lies outside the grid "
                                 f"[-{cfg.grid_bound}, {cfg.grid_bound}]^2")
        snapshot = coords  # the coordinates of the last trace row
        try:
            for iteration in range(1, cfg.iterations + 1):
                temperature *= cfg.cooling_rate
                snapshot = coords.copy()
                moved, masks = _move(coords, rng, cfg.step_sigma, cfg.grid_bound, _MAX_RETRIES)
                if masks == left[moved * n:moved * n + n]:
                    # same side masks: same crossing graph, same objective
                    delta = 0
                else:
                    saved = left.copy(), sides.copy(), adj.copy()
                    update_point_masks(left, sides, moved, masks)
                    changed = refresh_point_rows(adj, left, sides, n, moved)
                    delta = _objective_delta(adj, changed, cfg.k)
                improved = False
                if delta <= 0 or (
                    temperature > 0
                    and rng.random() < math.exp(-delta / temperature)
                ):
                    current_obj += delta
                    if current_obj < best_obj:
                        best_obj = current_obj
                        best = list(coords)
                        improved = True
                else:
                    coords = snapshot
                    left, sides, adj = saved

                trace.append((iteration, temperature, current_obj, best_obj))
                snapshot = coords
                if improved and on_improve is not None:
                    on_improve(iteration, best_obj)

                if iteration % _CHECK_INTERVAL == 0 and (
                    (left, sides, adj, current_obj) != _state(PointSet.from_coords(coords), cfg.k)
                ):
                    raise AssertionError("incremental crossing-graph or objective update drifted")
                if best_obj == 0:
                    break
        except KeyboardInterrupt:
            coords = snapshot

    best_set = PointSet.from_coords(best)
    recount = count_k_families(best_set, cfg.k)
    if recount != best_obj:
        raise AssertionError(
            f"objective bookkeeping drifted: recount {recount} != recorded {best_obj}"
        )
    return SearchState(
        current=PointSet.from_coords(coords),
        best=best_set,
        best_objective=best_obj,
        trace=tuple(trace),
    )


def seed_by_doubling(S: PointSet, m: int) -> PointSet:
    """Replicate ``S`` with a certified spacing as a low-objective search seed.

    Normalizes coordinates and replicates with the spacing
    :func:`crossfam.replication.replicate_certified` finds. The result has
    rational coordinates; scale with
    :func:`crossfam.geometry.to_integer_coordinates` before feeding it to
    :func:`anneal`.
    """
    return replicate_certified(normalize_coordinates(S), m)[0]
