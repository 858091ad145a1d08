"""Host-speed calibration: a fixed reference kernel timed between windows.

The 2-vCPU host this benchmark was built on changes speed by up to
1.5x for seconds to minutes at a time, and every fixed loop (the
program's and a plain hashing loop alike) slows by the same share.  A
run lasts less than such a stretch, so runs of the same code land in
different stretches and their raw timings disagree by more than any
useful bound.

So every window of measured epochs is bracketed by two timings of a
reference kernel that uses none of the program's code: HMAC-SHA256,
big-integer modular arithmetic and dict updates, the same mix of
interpreter, hashing and bignum work an SIES epoch does.  A window's
*scale* is ``REFERENCE_SECONDS`` divided by the mean of its two
reference timings; multiplying a time measured in the window by it
gives that time at the reference speed.  On the host at its usual
speed the scale is about 1, so reported times read as seconds.
"""

from __future__ import annotations

import hashlib
import hmac
import statistics
import time

_now = time.perf_counter

#: Kernel iterations per timing and timings per sample (their median).
ITERATIONS = 3000
REPEATS = 3
#: About the kernel's time on the host above (Intel Xeon, 2 vCPUs,
#: CPython 3.11.7): samples there ranged 6.1-8.4 ms with medians of
#: 6.5-7.2 ms.  Fixed: changing it rescales every reported time, so it
#: is part of the benchmark.
REFERENCE_SECONDS = 0.007

_KEY = b"perfbench-reference-kernel-key-0"
_MODULUS = (1 << 127) - 1


def _kernel() -> int:
    x = 12345678901234567890
    table: dict[int, int] = {}
    for i in range(ITERATIONS):
        digest = hmac.new(_KEY, i.to_bytes(8, "big"), hashlib.sha256).digest()
        x = (x * int.from_bytes(digest, "big") + i) % _MODULUS
        table[i & 255] = x
    return x


def reference_seconds() -> float:
    """Median of ``REPEATS`` timings of the kernel."""
    times = []
    for _ in range(REPEATS):
        start = _now()
        _kernel()
        times.append(_now() - start)
    return statistics.median(times)


class HostSpeed:
    """Reference samples taken at window boundaries.

    Sample once before the first window, then call :meth:`close_window`
    right after each window; it returns that window's scale from the
    samples on either side of it.
    """

    def __init__(self) -> None:
        self.samples = [reference_seconds()]

    def close_window(self) -> float:
        self.samples.append(reference_seconds())
        return 2 * REFERENCE_SECONDS / (self.samples[-2] + self.samples[-1])
