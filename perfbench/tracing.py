"""Spans and counters recorded around the benchmark's calls into crossfam.

A span is recorded by :meth:`Tracer.call` around one public call: its name
(``<layer>.<operation>``), start and end (``time.perf_counter``), the index
of the enclosing span and the job id. Spans stay in memory until the run
ends. A layer's self time is the duration of its spans minus the part of
them covered by child spans, so a call nested in another is not counted
twice. With tracing disabled, ``call`` only forwards the call.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: int


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.job = 0
        self.spans: list[Optional[Span]] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)``, recording a span when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.job)

    def count(self, name: str, value: int = 1) -> None:
        if self.enabled:
            self.counters[name] += value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[index]
        return dict(totals)

    def records(self) -> list[dict]:
        return [s._asdict() for s in self.spans]
