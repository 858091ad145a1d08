"""The cluster's single time source: the event loop's monotonic clock.

Every timeout, deadline and latency measurement in :mod:`repro.cluster`
goes through :class:`ClusterClock` — nothing reads ``time.time()`` or
any other wall clock (sieslint SL002).  The loop clock is *monotonic*
(``loop.time()`` is built on ``time.monotonic``), so deadlines never
jump when the host clock is adjusted, and all backoff *jitter* comes
from the attempt's keyed fault verdict — the clock itself holds no
randomness.

Real sockets mean real seconds: unlike the logical ticks of
:class:`repro.runtime.events.EventScheduler`, durations here depend on
the host.  The cluster therefore keeps its *outcomes* (which parcels
deliver, which sources survive) deterministic via the per-attempt keyed
fault schedule of :mod:`repro.cluster.faults`, and treats durations as
measurements, never as inputs to any decision a test asserts on.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable
from typing import TypeVar

from repro.errors import SimulationError

__all__ = ["ClusterClock"]

T = TypeVar("T")


class ClusterClock:
    """Monotonic seconds + timer primitives bound to the running loop."""

    def _loop(self) -> asyncio.AbstractEventLoop:
        try:
            return asyncio.get_running_loop()
        except RuntimeError:
            raise SimulationError(
                "ClusterClock used outside a running event loop; cluster "
                "components only tell time while the cluster is running"
            ) from None

    def now(self) -> float:
        """Monotonic seconds (the event loop's clock, never wall time)."""
        return self._loop().time()

    async def sleep(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        await asyncio.sleep(delay)

    def call_at(
        self, when: float, callback: Callable[[], None]
    ) -> asyncio.TimerHandle:
        """Schedule *callback* at absolute loop time *when* (cancellable)."""
        return self._loop().call_at(when, callback)

    async def wait_for(self, awaitable: Awaitable[T], timeout: float) -> T:
        """``asyncio.wait_for`` routed through the wrapper for auditability."""
        return await asyncio.wait_for(awaitable, timeout)
