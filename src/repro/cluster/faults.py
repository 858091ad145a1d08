"""Seeded loss injection at the cluster's stream layer.

TCP never loses bytes, so the cluster injects loss *before* the socket:
when the fault schedule says an attempt is lost, the sender simply does
not write the envelope (and counts the drop) — from the receiver's point
of view this is indistinguishable from a radio swallowing the packet,
which is exactly the PR 3 fault semantics transplanted to real sockets.

Determinism under real concurrency
----------------------------------

Pipelined epochs interleave their attempts on shared edges in an order
the OS decides, so the schedule must not depend on that order.  The
runtime's :class:`~repro.runtime.faults.FaultInjector` keys every
decision by the full attempt coordinate::

    (sender, receiver, parcel uid, attempt index)

through one keyed hash per attempt per direction.  A verdict is a pure
function of the seed and that coordinate — *no matter when or in what
order the attempts happen* — so the set of parcels that ultimately
deliver (and hence every epoch's survivor set and exact SUM) is
reproducible run to run, identical to the event runtime's on the same
seed, and computable in advance by :func:`parcel_fate`, the oracle the
differential tests replay.

Reused from the PR 3 plan: per-edge-class :class:`LinkProfile` loss and
duplication rates.  Latency/jitter are *not* simulated — real sockets
provide real latency — and time-windowed features (bursts, outages) are
rejected because the cluster has no logical clock to window them on.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.network.channel import EdgeClass
from repro.runtime.faults import ACK, DATA, FaultInjector, FaultPlan, LinkVerdict
from repro.runtime.transport import RetransmitPolicy

__all__ = ["StreamVerdict", "StreamFaultInjector", "parcel_fate"]


#: The cluster's historical name for the one verdict type.
StreamVerdict = LinkVerdict


class StreamFaultInjector(FaultInjector):
    """The fault oracle on a substrate without logical time.

    Rejects plans with :class:`~repro.runtime.faults.BurstLoss` or
    :class:`~repro.runtime.faults.NodeOutage` windows, and judges
    attempts positionally by coordinate alone.
    """

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        if plan.bursts:
            raise ConfigurationError(
                "BurstLoss windows are defined over logical time, which the "
                "cluster does not have; use per-edge LinkProfile loss"
            )
        if plan.outages:
            raise ConfigurationError(
                "NodeOutage windows are defined over logical time, which the "
                "cluster does not have; model churn via failed_sources"
            )
        super().__init__(plan, seed=seed)

    def data_verdict(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> LinkVerdict:
        """Fate of data attempt *attempt* of parcel *uid*."""
        return self.attempt(DATA, sender, receiver, edge, uid, attempt, 0.0)

    def ack_verdict(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> bool:
        """True when the ACK for (*uid*, *attempt*) is lost on the way back.

        *sender*/*receiver* name the **data** direction (the ACK travels
        receiver→sender).
        """
        return self.attempt(ACK, sender, receiver, edge, uid, attempt, 0.0).lost


def parcel_fate(
    injector: StreamFaultInjector,
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
