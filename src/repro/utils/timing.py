"""Wall-clock measurement utilities for the experiment harness.

The paper reports average CPU time per epoch over 20 epochs.  We provide
a :class:`Stopwatch` that accumulates named segments (so a protocol run
can attribute time to *source*, *aggregator* and *querier* work
separately even though the simulation is single-process) plus a
repeat-and-summarize helper for micro-benchmarks of the Table II
constants.
"""

from __future__ import annotations

import gc
import math
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Stopwatch", "TimingStats", "time_operation", "gc_paused"]


@dataclass
class TimingStats:
    """Summary statistics (seconds) over repeated timing samples."""

    samples: list[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def median(self) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def stddev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1))


class Stopwatch:
    """Accumulates elapsed time into named segments.

    >>> sw = Stopwatch()
    >>> with sw.measure("source"):
    ...     pass
    >>> sw.seconds("source") >= 0.0
    True
    """

    def __init__(self) -> None:
        self._segments: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    @contextmanager
    def measure(self, segment: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._segments[segment] = self._segments.get(segment, 0.0) + elapsed
            self._counts[segment] = self._counts.get(segment, 0) + 1

    def add(self, segment: str, seconds: float) -> None:
        """Credit *seconds* to *segment* without running a timer."""
        self._segments[segment] = self._segments.get(segment, 0.0) + seconds
        self._counts[segment] = self._counts.get(segment, 0) + 1

    def seconds(self, segment: str) -> float:
        return self._segments.get(segment, 0.0)

    def count(self, segment: str) -> int:
        return self._counts.get(segment, 0)

    def mean_seconds(self, segment: str) -> float:
        n = self._counts.get(segment, 0)
        return self._segments.get(segment, 0.0) / n if n else 0.0

    def segments(self) -> dict[str, float]:
        """A copy of all accumulated segment totals (seconds)."""
        return dict(self._segments)

    def reset(self) -> None:
        self._segments.clear()
        self._counts.clear()


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a timed region, as :mod:`timeit` does.

    A collection is triggered by allocation counts, not by the timed
    operation itself, and its pause grows with every object the process
    holds — so without this, a sub-millisecond measurement taken late in
    a long process can absorb a collection of unrelated objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def time_operation(
    operation: Callable[[], object],
    *,
    repeat: int = 5,
    inner_loops: int = 1,
    warmup: int = 1,
) -> TimingStats:
    """Time *operation* ``repeat`` times, amortizing over ``inner_loops``.

    Each recorded sample is the mean per-call time of one batch of
    ``inner_loops`` invocations; *warmup* unrecorded batches run first so
    Python-level caches (bytecode specialization, hash backends) settle.
    The cyclic garbage collector is paused throughout (:func:`gc_paused`).
    """
    stats = TimingStats()
    with gc_paused():
        for _ in range(warmup):
            for _ in range(inner_loops):
                operation()
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(inner_loops):
                operation()
            elapsed = time.perf_counter() - start
            stats.add(elapsed / inner_loops)
    return stats
