"""Seeded loss injection at the cluster's stream layer.

TCP never loses bytes, so the cluster injects loss *before* the socket:
when the fault schedule says an attempt is lost, the sender simply does
not write the envelope (and counts the drop) — from the receiver's point
of view this is indistinguishable from a radio swallowing the packet,
which is exactly the PR 3 fault semantics transplanted to real sockets.

Determinism under real concurrency
----------------------------------

:class:`repro.runtime.faults.FaultInjector` draws from one sequential
stream per edge, which is deterministic under the logical-time scheduler
but would make outcomes depend on OS timing here (pipelined epochs
interleave their attempts on shared edges nondeterministically).  The
cluster therefore keys every decision by the full attempt coordinate::

    (sender, receiver, parcel uid, attempt index)

via independent :class:`~repro.utils.rng.DeterministicRandom` streams.
A verdict is a pure function of the seed and that coordinate — *no
matter when or in what order the attempts happen* — so the set of
parcels that ultimately deliver (and hence every epoch's survivor set
and exact SUM) is reproducible run to run and computable in advance by
:func:`parcel_fate`, the oracle the differential tests replay.

Reused from the PR 3 plan: per-edge-class :class:`LinkProfile` loss and
duplication rates.  Latency/jitter are *not* simulated — real sockets
provide real latency — and time-windowed features (bursts, outages) are
rejected because the cluster has no logical clock to window them on.
"""

from __future__ import annotations

from repro.network.channel import EdgeClass
from repro.runtime.faults import KeyedFaultInjector, KeyedVerdict
from repro.runtime.transport import RetransmitPolicy

__all__ = ["StreamVerdict", "StreamFaultInjector", "parcel_fate"]


#: The cluster's historical names for the substrate-neutral keyed oracle
#: (:class:`~repro.runtime.faults.KeyedFaultInjector`) and its verdict.
#: Stream labels are unchanged — same seed, same verdicts as every
#: earlier release.
StreamFaultInjector = KeyedFaultInjector
StreamVerdict = KeyedVerdict


def parcel_fate(
    injector: KeyedFaultInjector,
    policy: RetransmitPolicy,
    sender: int,
    receiver: int,
    edge: EdgeClass,
    uid: int,
) -> tuple[bool, int]:
    """Replay one parcel's ARQ against the keyed schedule.

    Returns ``(delivered, attempts)`` where *attempts* is the number of
    attempts a sender makes when every ACK round-trip beats its timeout.
    Under slow ACKs a real sender may fire **more** attempts than this
    before the first ACK lands — but extra attempts can only deliver
    extra (suppressed) copies, so ``delivered`` is timing-independent:
    it is exactly what the cluster produces on the same seed and plan.
    The differential tests walk the tree bottom-up with this function to
    predict every epoch's survivor set in advance.
    """
    delivered = False
    for attempt in range(policy.max_attempts):
        verdict = injector.data_verdict(sender, receiver, edge, uid, attempt)
        if not verdict.lost:
            delivered = True
            if not injector.ack_verdict(sender, receiver, edge, uid, attempt):
                return True, attempt + 1
    return delivered, policy.max_attempts
