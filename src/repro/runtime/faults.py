"""Seeded link and node fault models for the event runtime and the cluster.

A :class:`FaultPlan` declares *what can go wrong*: per-edge-class link
profiles (loss rate, latency, jitter, duplication), time-windowed burst
losses, and node crash/recover churn.  A :class:`FaultInjector` turns
the plan into one :class:`LinkVerdict` per transmission attempt.

Determinism: a verdict is a pure function of the seed and the attempt
coordinate ``(direction, sender, receiver, uid, attempt)`` — one keyed
hash (:func:`~repro.utils.rng.keyed_uniforms`) per attempt per
direction, sliced into fixed variates.  No stream is advanced, so what
survives does not depend on the order, the time or how often attempts
are judged: the event runtime and the TCP cluster (uid = epoch on both)
draw the same loss schedule from the same seed, and
:func:`repro.cluster.faults.parcel_fate` can replay it in advance.
Only :class:`BurstLoss` and :class:`NodeOutage` look at the attempt's
logical time, which the cluster does not have
(:class:`repro.cluster.faults.StreamFaultInjector` rejects them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ParameterError
from repro.network.channel import EdgeClass
from repro.utils.rng import derive_seed, keyed_uniforms

__all__ = [
    "LinkProfile",
    "BurstLoss",
    "NodeOutage",
    "FaultPlan",
    "DATA",
    "ACK",
    "LinkVerdict",
    "FaultInjector",
]


def _check_rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class LinkProfile:
    """Steady-state behaviour of one radio link (or edge class).

    ``latency`` is the base one-way propagation in logical time units;
    each transmission adds ``uniform(0, jitter)`` on top, which also
    models reordering — two packets sent back-to-back may arrive
    swapped whenever the jitter window exceeds the send gap.
    """

    loss_rate: float = 0.0
    latency: float = 1.0
    jitter: float = 0.5
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("loss_rate", self.loss_rate)
        _check_rate("duplicate_rate", self.duplicate_rate)
        if self.latency < 0 or self.jitter < 0:
            raise ParameterError("latency and jitter must be non-negative")


@dataclass(frozen=True)
class BurstLoss:
    """Elevated loss on a time window — models interference bursts.

    During ``[start, end)`` the effective loss rate on matching edges
    becomes ``1 - (1-base)*(1-loss_rate)`` (independent loss sources).
    """

    start: float
    end: float
    loss_rate: float = 1.0
    edge_class: EdgeClass | None = None

    def __post_init__(self) -> None:
        _check_rate("loss_rate", self.loss_rate)
        if self.end <= self.start:
            raise ParameterError(f"burst window [{self.start}, {self.end}) is empty")

    def active(self, now: float, edge: EdgeClass) -> bool:
        if self.edge_class is not None and edge is not self.edge_class:
            return False
        return self.start <= now < self.end


@dataclass(frozen=True)
class NodeOutage:
    """A node is down (neither receives, ACKs, nor transmits) in ``[start, end)``."""

    node_id: int
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ParameterError(f"outage window [{self.start}, {self.end}) is empty")

    def down(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass
class FaultPlan:
    """The complete fault configuration of one runtime run."""

    #: Profile used for edge classes without an explicit override.
    default_profile: LinkProfile = field(default_factory=LinkProfile)
    #: Per-edge-class overrides (e.g. a lossier source tier).
    profiles: dict[EdgeClass, LinkProfile] = field(default_factory=dict)
    bursts: tuple[BurstLoss, ...] = ()
    outages: tuple[NodeOutage, ...] = ()

    def profile_for(self, edge: EdgeClass) -> LinkProfile:
        return self.profiles.get(edge, self.default_profile)

    @classmethod
    def lossless(cls) -> "FaultPlan":
        """The degenerate plan: instant, perfect links (overhead baseline)."""
        return cls(default_profile=LinkProfile(loss_rate=0.0, latency=0.0, jitter=0.0))

    @classmethod
    def uniform_loss(cls, loss_rate: float, **profile_kwargs: float) -> "FaultPlan":
        """Every edge class loses packets independently at *loss_rate*."""
        return cls(default_profile=LinkProfile(loss_rate=loss_rate, **profile_kwargs))


#: Direction of a keyed draw: the data copy, or its transport ACK.
DATA = 0
ACK = 1


@dataclass(slots=True)
class LinkVerdict:
    """What the link does to one transmission attempt, data or ACK.

    Verdicts compare by fate — ``lost`` and ``copies`` (0 lost, 1
    normal, 2 duplicated) — the part every substrate acts on; the
    timing fields ride along for the event runtime's clock.  Not frozen:
    one is built per attempt on the hot path, and nothing mutates it.
    """

    lost: bool
    copies: int
    #: Arrival delay of each surviving copy, in logical time.
    latencies: tuple[float, ...] = field(default=(), compare=False)
    #: The sender's backoff jitter variate for this attempt (data only).
    backoff: float = field(default=0.0, compare=False)


class FaultInjector:
    """Deterministic oracle answering "what happens to this transmission?".

    Each call of :meth:`attempt` hashes the attempt coordinate once and
    reads fixed slices of the hash: loss, duplication, the latency of
    each copy and the sender's backoff jitter.  An ACK draw is keyed by
    the same coordinate in the :data:`ACK` direction (so a lost packet
    and a lost ACK are uncorrelated) and reads loss and latency.
    """

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        self.plan = plan
        self._key = derive_seed(seed, "faults")
        #: The plan's outage windows, grouped by node once.
        self._outages: dict[int, list[NodeOutage]] = {}
        for outage in plan.outages:
            self._outages.setdefault(outage.node_id, []).append(outage)

    def node_down(self, node_id: int, now: float) -> bool:
        """True when the node is inside any of its outage windows."""
        windows = self._outages.get(node_id)
        return windows is not None and any(o.down(now) for o in windows)

    def effective_loss_rate(self, edge: EdgeClass, now: float) -> float:
        """Steady-state loss combined with every active burst."""
        survive = 1.0 - self.plan.profile_for(edge).loss_rate
        for burst in self.plan.bursts:
            if burst.active(now, edge):
                survive *= 1.0 - burst.loss_rate
        return 1.0 - survive

    def attempt(
        self,
        direction: int,
        sender: int,
        receiver: int,
        edge: EdgeClass,
        uid: int,
        attempt: int,
        now: float,
    ) -> LinkVerdict:
        """Judge attempt *attempt* of parcel *uid* at logical time *now*.

        *sender*/*receiver* name the data direction for both
        *direction* values; the ACK travels receiver → sender, is lost
        when the data sender is down, and is never duplicated.
        """
        if direction == DATA:
            u_loss, u_dup, u_first, u_second, u_backoff = keyed_uniforms(
                self._key, DATA, sender, receiver, uid, attempt, count=5
            )
            if self.node_down(receiver, now) or u_loss < self.effective_loss_rate(edge, now):
                return LinkVerdict(True, 0, (), u_backoff)
            profile = self.plan.profile_for(edge)
            first = profile.latency + u_first * profile.jitter
            if u_dup < profile.duplicate_rate:
                second = profile.latency + u_second * profile.jitter
                return LinkVerdict(False, 2, (first, second), u_backoff)
            return LinkVerdict(False, 1, (first,), u_backoff)
        u_loss, u_latency = keyed_uniforms(self._key, ACK, sender, receiver, uid, attempt, count=2)
        if self.node_down(sender, now) or u_loss < self.effective_loss_rate(edge, now):
            return LinkVerdict(True, 0)
        profile = self.plan.profile_for(edge)
        return LinkVerdict(False, 1, (profile.latency + u_latency * profile.jitter,))
