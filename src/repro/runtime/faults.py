"""Seeded link and node fault models for the event runtime.

A :class:`FaultPlan` declares *what can go wrong*: per-edge-class link
profiles (loss rate, latency, jitter, duplication), time-windowed burst
losses, and node crash/recover churn.  A :class:`FaultInjector` turns
the plan into deterministic per-transmission verdicts.

Determinism: every edge gets its own
:class:`~repro.utils.rng.DeterministicRandom` child stream keyed by the
``sender->receiver`` pair, and every :meth:`FaultInjector.attempt` call
draws a *fixed* number of variates from that stream regardless of the
verdict, so a changed loss outcome on one attempt never perturbs the
latency of the next.  Two runs with the same plan and seed therefore
produce identical fault sequences — the property the acceptance tests
assert by comparing whole metrics ledgers.

:class:`FaultInjector` and the order-independent
:class:`KeyedFaultInjector` answer the same two questions per ARQ
attempt — ``data_delays`` (arrival delay of each surviving copy, none
when the attempt is lost) and ``ack_delay`` (the ACK's return delay,
``None`` when it is lost) — so the transport drives either unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ParameterError
from repro.network.channel import EdgeClass
from repro.utils.rng import DeterministicRandom

__all__ = [
    "LinkProfile",
    "BurstLoss",
    "NodeOutage",
    "FaultPlan",
    "LinkVerdict",
    "FaultInjector",
    "KeyedVerdict",
    "KeyedFaultInjector",
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


@dataclass(frozen=True)
class LinkVerdict:
    """What the channel did to one physical transmission attempt.

    ``latencies`` holds one arrival delay per surviving copy — empty
    when the packet was lost, two entries when it was duplicated.
    """

    lost: bool
    latencies: tuple[float, ...]

    @property
    def copies(self) -> int:
        return len(self.latencies)


#: The verdict of every lost attempt (immutable, so one instance serves).
_LOST = LinkVerdict(lost=True, latencies=())


class FaultInjector:
    """Deterministic oracle answering "what happens to this transmission?"."""

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        self.plan = plan
        self._seed = seed
        self._streams: dict[tuple[int, int], DeterministicRandom] = {}
        #: The plan's outage windows, grouped by node once.
        self._outages: dict[int, list[NodeOutage]] = {}
        for outage in plan.outages:
            self._outages.setdefault(outage.node_id, []).append(outage)

    def _stream(self, sender: int, receiver: int) -> DeterministicRandom:
        key = (sender, receiver)
        stream = self._streams.get(key)
        if stream is None:
            stream = DeterministicRandom(self._seed, "link", f"{sender}->{receiver}")
            self._streams[key] = stream
        return stream

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
        self, sender: int, receiver: int, edge: EdgeClass, now: float
    ) -> LinkVerdict:
        """Adjudicate one physical transmission at logical time *now*.

        Exactly four variates are drawn per call (loss, latency,
        duplication, duplicate latency) so verdict outcomes never shift
        the stream for later attempts on the same edge.
        """
        profile = self.plan.profile_for(edge)
        rng = self._stream(sender, receiver)
        u_loss = rng.random()
        u_latency = rng.random()
        u_dup = rng.random()
        u_dup_latency = rng.random()

        if self.node_down(receiver, now) or u_loss < self.effective_loss_rate(edge, now):
            return _LOST

        latencies = [profile.latency + u_latency * profile.jitter]
        if u_dup < profile.duplicate_rate:
            latencies.append(profile.latency + u_dup_latency * profile.jitter)
        return LinkVerdict(lost=False, latencies=tuple(latencies))

    def data_delays(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int, now: float
    ) -> tuple[float, ...]:
        """Arrival delays of a data attempt's surviving copies (none when lost)."""
        return self.attempt(sender, receiver, edge, now).latencies

    def ack_delay(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int, now: float
    ) -> float | None:
        """Return delay of that attempt's ACK (receiver → sender), None when lost."""
        verdict = self.attempt(receiver, sender, edge, now)
        return None if verdict.lost else verdict.latencies[0]


@dataclass(frozen=True)
class KeyedVerdict:
    """What a keyed fault schedule does to one transmission attempt."""

    lost: bool
    #: Copies that survive the link (0 lost, 1 normal, 2 duplicated).
    copies: int


class KeyedFaultInjector:
    """Order-independent fault oracle keyed by the attempt coordinate.

    Where :class:`FaultInjector` draws from one *sequential* stream per
    edge (deterministic only when attempts are adjudicated in a fixed
    order), this oracle keys every decision by the full coordinate
    ``(sender, receiver, parcel uid, attempt index)`` through
    independent :class:`~repro.utils.rng.DeterministicRandom` streams.
    A verdict is a pure function of the seed and the coordinate — no
    matter when, in what order, or how often it is queried — which is
    what lets the TCP cluster stay reproducible under real concurrency
    and what lets the runtime replay the *same* loss schedule as the
    cluster for cross-substrate trace comparison
    (``RuntimeConfig.keyed_faults``).

    The stream labels deliberately keep the literal ``"cluster"``
    namespace the cluster substrate introduced: both substrates must
    draw identical schedules from one seed, and re-labelling would
    silently re-randomize every pinned cluster test.

    Time-windowed features (:class:`BurstLoss`, :class:`NodeOutage`)
    are rejected — a keyed schedule has no notion of *when* an attempt
    happens, which is exactly the point.
    """

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        if plan.bursts:
            raise ConfigurationError(
                "BurstLoss windows are defined over logical time and cannot be "
                "keyed by attempt coordinate; use per-edge LinkProfile loss"
            )
        if plan.outages:
            raise ConfigurationError(
                "NodeOutage windows are defined over logical time and cannot be "
                "keyed by attempt coordinate; model churn via failed_sources"
            )
        self.plan = plan
        self.seed = seed
        #: Verdicts issued per edge class (diagnostics).
        self.verdicts_by_class: dict[EdgeClass, int] = {}

    def node_down(self, node_id: int, now: float) -> bool:
        """Always False: keyed plans reject outages."""
        return False

    def _draw(
        self, kind: str, sender: int, receiver: int, uid: int, attempt: int, n: int
    ) -> list[float]:
        rng = DeterministicRandom(
            self.seed, "cluster", kind, f"{sender}->{receiver}", f"uid:{uid}", f"try:{attempt}"
        )
        return [rng.random() for _ in range(n)]

    def data_verdict(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> KeyedVerdict:
        """Fate of data attempt *attempt* of parcel *uid*."""
        self.verdicts_by_class[edge] = self.verdicts_by_class.get(edge, 0) + 1
        profile = self.plan.profile_for(edge)
        u_loss, u_dup = self._draw("data", sender, receiver, uid, attempt, 2)
        if u_loss < profile.loss_rate:
            return KeyedVerdict(lost=True, copies=0)
        copies = 2 if u_dup < profile.duplicate_rate else 1
        return KeyedVerdict(lost=False, copies=copies)

    def ack_verdict(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> bool:
        """True when the ACK for (*uid*, *attempt*) is lost on the way back.

        *sender*/*receiver* name the **data** direction (the ACK travels
        receiver→sender); keyed independently of the data draw so a lost
        packet and a lost ACK are uncorrelated, as on a real radio.
        """
        profile = self.plan.profile_for(edge)
        (u_loss,) = self._draw("ack", sender, receiver, uid, attempt, 1)
        return u_loss < profile.loss_rate

    def data_latencies(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int, copies: int
    ) -> tuple[float, ...]:
        """Arrival delays for *copies* surviving copies (logical time).

        Drawn from a keyed stream of its own (``"lat"``) so substrates
        that do not simulate latency — the TCP cluster has real sockets
        for that — consume nothing from the loss/duplication streams.
        """
        profile = self.plan.profile_for(edge)
        draws = self._draw("lat", sender, receiver, uid, attempt, copies)
        return tuple(profile.latency + u * profile.jitter for u in draws)

    def ack_latency(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> float:
        """Return-trip delay of a surviving ACK (logical time)."""
        profile = self.plan.profile_for(edge)
        (u,) = self._draw("acklat", sender, receiver, uid, attempt, 1)
        return profile.latency + u * profile.jitter

    def data_delays(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int, now: float
    ) -> tuple[float, ...]:
        """Arrival delays of a data attempt's surviving copies (none when lost)."""
        verdict = self.data_verdict(sender, receiver, edge, uid, attempt)
        if verdict.lost:
            return ()
        return self.data_latencies(sender, receiver, edge, uid, attempt, verdict.copies)

    def ack_delay(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int, now: float
    ) -> float | None:
        """Return delay of that attempt's ACK, None when lost."""
        if self.ack_verdict(sender, receiver, edge, uid, attempt):
            return None
        return self.ack_latency(sender, receiver, edge, uid, attempt)
