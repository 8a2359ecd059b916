"""The machine's current speed, measured with a fixed pure-Python probe.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more over seconds to minutes, as other tenants come and go. A run
times a short probe that does not call crossfam before the first job and
after every job. The probe runs the same interpreter paths the program does
(tuple unpacking, integer orientation tests, bitmask rows, popcounts), so
the host slows both by about the same factor. Times are then reported in
reference seconds: wall seconds times ``REFERENCE_S / probe time``, the time
the work would take on a machine that runs the probe in exactly
``REFERENCE_S``. A slower program reads slower; a slower host does not.
"""

from __future__ import annotations

from time import perf_counter

#: probe time on the reference machine; about one probe on a 2.1 GHz Xeon vCPU
REFERENCE_S = 1e-3

_POINTS = tuple(((i * 7919) % 101, (i * 104729) % 103) for i in range(30))
_ROUNDS = 7


def _kernel() -> int:
    """Orientation bitmask rows of a fixed point list; returns the total popcount."""
    pts = _POINTS
    total = 0
    for _ in range(_ROUNDS):
        for a, (ax, ay) in enumerate(pts):
            row = 0
            for b, (bx, by) in enumerate(pts):
                if ax * by - ay * bx > 0:
                    row |= 1 << b
            total += bin(row).count("1")
    return total


_EXPECTED = _kernel()


def probe() -> float:
    """Seconds one run of the probe kernel takes now."""
    t0 = perf_counter()
    result = _kernel()
    elapsed = perf_counter() - t0
    if result != _EXPECTED:
        raise AssertionError("speed probe computed a different answer")
    return elapsed


def _median(values: list[float]) -> float:
    # Not ``statistics.median``: the import-time probe loads this module
    # before crossfam and must not pre-load modules crossfam imports.
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def scale(probe_times: list[float]) -> float:
    """Factor from wall seconds to reference seconds, from probes around one timing.

    The median ignores the odd probe that a preemption stretched.
    """
    return REFERENCE_S / _median(probe_times)


def reference_times(times: list[float], probe_times: list[float]) -> list[float]:
    """Job wall times in reference seconds.

    ``probe_times[i]`` was taken just before job ``i`` and ``probe_times[i + 1]``
    just after it. Each job is scaled by the median of the two probes before
    and the two after it: near enough to follow the host's drift, which
    holds for seconds, and several, so one stretched probe does not count.
    """
    if len(probe_times) != len(times) + 1:
        raise ValueError(f"{len(probe_times)} probes for {len(times)} jobs")
    return [t * scale(probe_times[max(0, i - 1):i + 3]) for i, t in enumerate(times)]
