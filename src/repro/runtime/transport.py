"""Per-hop reliable delivery: ACKs, timeouts, retransmission, dedup.

Real WSN MAC layers retransmit unacknowledged frames a bounded number
of times; SIES rides on that and recovers whatever still gets lost via
the reporting-subset mechanism.  This module models the MAC half:

* every application send becomes a :class:`Parcel` with a unique id;
* each physical attempt passes through the legitimate
  :class:`~repro.network.channel.Channel` (so adversary interceptors
  and byte counters see retransmissions exactly like first attempts)
  and then through the fault injector — the sequential
  :class:`~repro.runtime.faults.FaultInjector` or the attempt-keyed
  :class:`~repro.runtime.faults.KeyedFaultInjector`, asked the same two
  questions (``data_delays``, ``ack_delay``);
* the receiver delivers the first copy to the application, suppresses
  duplicates by parcel id, and always returns a transport-level ACK
  (itself subject to link faults on the reverse direction);
* the sender arms a retransmission timer per attempt — exponential
  backoff with deterministic jitter — and gives up after the retry
  budget, invoking the sender's failure callback.

A sender "giving up" does **not** retract a copy that actually arrived
(the ACK may be the lost half): correctness downstream derives from
what receivers really merged, never from sender-side beliefs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ParameterError
from repro.network.channel import Channel, EdgeClass
from repro.network.messages import DataMessage
from repro.runtime.events import EventScheduler, ScheduledEvent
from repro.runtime.faults import FaultInjector, KeyedFaultInjector
from repro.utils.rng import DeterministicRandom

__all__ = [
    "RetransmitPolicy",
    "Parcel",
    "TransportStats",
    "ReliableTransport",
    "TransportObserver",
    "transport_event",
]

#: Application delivery callback: (delivered message, manifest).
DeliverFn = Callable[[DataMessage, frozenset[int]], None]
#: Sender-side failure callback once the retry budget is exhausted.
FailFn = Callable[["Parcel"], None]
#: Observability hook: ``(event kind, attributes)`` per transport event.
#: Kinds: ``attempt``, ``drop``, ``deliver``, ``duplicate``, ``ack_lost``,
#: ``give_up``; attributes as built by :func:`transport_event`.  Kept as
#: a plain callable so the transport stays below :mod:`repro.obs` in the
#: layering (the adapter lives up there).
TransportObserver = Callable[[str, dict], None]


def transport_event(
    time: float,
    epoch: int,
    uid: int | None,
    attempt: int | None,
    edge: EdgeClass,
    sender: int,
    receiver: int,
    **extra: object,
) -> dict:
    """The attribute dict of one observer event, for every substrate.

    ``uid``/``attempt`` are ``None`` for events that belong to no single
    ARQ attempt (the runtime's ``late`` classification).
    """
    return {
        "time": time,
        "epoch": epoch,
        "uid": uid,
        "attempt": attempt,
        "edge": edge.value,
        "sender": sender,
        "receiver": receiver,
        **extra,
    }


@dataclass(frozen=True)
class RetransmitPolicy:
    """Retry budget and backoff shape of the per-hop ARQ.

    Attempt ``a`` (0-based) waits ``ack_timeout * backoff**a`` scaled
    by ``1 + uniform(0, jitter)`` before retransmitting — classic
    truncated exponential backoff with jitter to de-synchronize
    colliding retransmitters.
    """

    max_retries: int = 4
    ack_timeout: float = 12.0
    backoff: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ParameterError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.ack_timeout <= 0:
            raise ParameterError(f"ack_timeout must be positive, got {self.ack_timeout}")
        if self.backoff < 1.0:
            raise ParameterError(f"backoff must be >= 1, got {self.backoff}")
        if self.jitter < 0:
            raise ParameterError(f"jitter must be non-negative, got {self.jitter}")

    def timeout_for(self, attempt: int, u: float) -> float:
        """Deadline delay before retransmission *attempt+1* (``u ∈ [0,1)``)."""
        return self.ack_timeout * (self.backoff**attempt) * (1.0 + self.jitter * u)

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def worst_case_span(self) -> float:
        """Upper bound on time from first send to giving up (no latencies)."""
        return sum(
            self.timeout_for(attempt, 1.0) for attempt in range(self.max_attempts)
        )


@dataclass
class Parcel:
    """One application-level send in flight across a single hop."""

    uid: int
    message: DataMessage
    edge: EdgeClass
    manifest: frozenset[int]
    on_deliver: DeliverFn | None = None
    on_fail: FailFn | None = None
    attempts: int = 0
    acked: bool = False
    failed: bool = False
    timer: ScheduledEvent | None = field(default=None, repr=False)
    #: Cached wire encoding from the first attempt — retransmissions put
    #: byte-identical frames on the air, as a real MAC layer would.
    frame: bytes | None = field(default=None, repr=False)


@dataclass
class TransportStats:
    """Per-edge-class ARQ counters — part of the deterministic ledger."""

    attempts: dict[EdgeClass, int] = field(default_factory=dict)
    retransmissions: dict[EdgeClass, int] = field(default_factory=dict)
    delivered: dict[EdgeClass, int] = field(default_factory=dict)
    duplicates_suppressed: dict[EdgeClass, int] = field(default_factory=dict)
    acks_sent: dict[EdgeClass, int] = field(default_factory=dict)
    acks_lost: dict[EdgeClass, int] = field(default_factory=dict)
    gave_up: dict[EdgeClass, int] = field(default_factory=dict)

    @staticmethod
    def _bump(counter: dict[EdgeClass, int], edge: EdgeClass, by: int = 1) -> None:
        counter[edge] = counter.get(edge, 0) + by

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Canonical JSON-friendly form (keys sorted for run diffing)."""
        return {
            name: {edge.value: count for edge, count in sorted(
                getattr(self, name).items(), key=lambda item: item[0].value
            )}
            for name in (
                "attempts",
                "retransmissions",
                "delivered",
                "duplicates_suppressed",
                "acks_sent",
                "acks_lost",
                "gave_up",
            )
        }


class ReliableTransport:
    """The per-hop ARQ engine shared by every node of the runtime."""

    def __init__(
        self,
        scheduler: EventScheduler,
        injector: FaultInjector | KeyedFaultInjector,
        channel: Channel,
        policy: RetransmitPolicy,
        *,
        seed: int = 0,
        stats: TransportStats | None = None,
        observer: TransportObserver | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.injector = injector
        self.channel = channel
        self.policy = policy
        self.stats = stats if stats is not None else TransportStats()
        #: Optional observability hook (see :data:`TransportObserver`).
        self.observer = observer
        self._backoff_rng = DeterministicRandom(seed, "transport", "backoff")
        self._next_uid = 0
        #: Parcel uids already delivered to the application at each receiver.
        self._seen: dict[int, set[int]] = {}

    def send(
        self,
        message: DataMessage,
        edge: EdgeClass,
        manifest: frozenset[int],
        *,
        on_deliver: DeliverFn | None = None,
        on_fail: FailFn | None = None,
    ) -> Parcel:
        """Hand one message to the ARQ; callbacks fire as events."""
        parcel = Parcel(
            uid=self._next_uid,
            message=message,
            edge=edge,
            manifest=manifest,
            on_deliver=on_deliver,
            on_fail=on_fail,
        )
        self._next_uid += 1
        self._attempt(parcel)
        return parcel

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def _attempt(self, parcel: Parcel) -> None:
        attempt_index = parcel.attempts
        parcel.attempts += 1
        TransportStats._bump(self.stats.attempts, parcel.edge)
        if attempt_index > 0:
            TransportStats._bump(self.stats.retransmissions, parcel.edge)

        message = parcel.message
        # The legitimate transmission: byte counters and adversary
        # interceptors apply per physical attempt — retransmissions
        # cost real radio bytes and give the adversary another shot.
        # Encode exactly once per parcel; every attempt replays the
        # identical frame bytes.
        if self.channel.codec is not None and parcel.frame is None:
            parcel.frame = self.channel.codec.encode(message.psr)
        outcome = self.channel.transmit(message, parcel.edge, frame=parcel.frame)
        self._notify("attempt", parcel, attempt_index)
        if outcome is not None:
            # The keyed oracle takes the epoch as parcel uid, as the TCP
            # cluster does: same seed, same loss schedule on both.
            latencies = self.injector.data_delays(
                message.sender,
                message.receiver,
                parcel.edge,
                message.epoch,
                attempt_index,
                self.scheduler.now,
            )
            if not latencies:
                self._notify("drop", parcel, attempt_index, cause="link")
            for latency in latencies:
                self.scheduler.call_later(
                    latency,
                    lambda m=outcome, p=parcel, a=attempt_index: self._arrive(p, m, a),
                )
        else:
            # The channel itself swallowed the frame (adversary drop or
            # decode failure) before the link lottery even ran.
            self._notify("drop", parcel, attempt_index, cause="channel")

        # Arm the retransmission timer regardless of what the link did —
        # the sender cannot observe loss, only missing ACKs.
        if attempt_index < self.policy.max_retries:
            delay = self.policy.timeout_for(attempt_index, self._backoff_rng.random())
            parcel.timer = self.scheduler.call_later(
                delay, lambda p=parcel: self._retransmit(p)
            )
        else:
            delay = self.policy.timeout_for(attempt_index, self._backoff_rng.random())
            parcel.timer = self.scheduler.call_later(
                delay, lambda p=parcel: self._give_up(p)
            )

    def _retransmit(self, parcel: Parcel) -> None:
        if parcel.acked:
            return
        self._attempt(parcel)

    def _give_up(self, parcel: Parcel) -> None:
        if parcel.acked:
            return
        parcel.failed = True
        TransportStats._bump(self.stats.gave_up, parcel.edge)
        self._notify("give_up", parcel, parcel.attempts - 1)
        if parcel.on_fail is not None:
            parcel.on_fail(parcel)

    def _notify(self, kind: str, parcel: Parcel, attempt_index: int, **extra: object) -> None:
        if self.observer is None:
            return
        message = parcel.message
        self.observer(
            kind,
            transport_event(
                self.scheduler.now,
                message.epoch,
                parcel.uid,
                attempt_index,
                parcel.edge,
                message.sender,
                message.receiver,
                **extra,
            ),
        )

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def _arrive(self, parcel: Parcel, message: DataMessage, attempt_index: int) -> None:
        receiver = message.receiver
        now = self.scheduler.now
        if self.injector.node_down(receiver, now):
            return  # a crashed node neither delivers nor ACKs
        seen = self._seen.setdefault(receiver, set())
        if parcel.uid in seen:
            TransportStats._bump(self.stats.duplicates_suppressed, parcel.edge)
            self._notify("duplicate", parcel, attempt_index)
        else:
            seen.add(parcel.uid)
            TransportStats._bump(self.stats.delivered, parcel.edge)
            self._notify("deliver", parcel, attempt_index)
            if parcel.on_deliver is not None:
                parcel.on_deliver(message, parcel.manifest)
        # The transport ACKs every copy (the sender may have missed the
        # previous ACK); the reverse direction suffers the same faults.
        TransportStats._bump(self.stats.acks_sent, parcel.edge)
        delay = self.injector.ack_delay(
            message.sender, receiver, parcel.edge, message.epoch, attempt_index, now
        )
        if delay is None:
            TransportStats._bump(self.stats.acks_lost, parcel.edge)
            self._notify("ack_lost", parcel, attempt_index)
            return
        # Multiple ACK copies collapse into the first; extras are no-ops.
        self.scheduler.call_later(delay, lambda p=parcel: self._ack(p))

    def _ack(self, parcel: Parcel) -> None:
        if parcel.acked:
            return
        parcel.acked = True
        if parcel.timer is not None:
            parcel.timer.cancel()
            parcel.timer = None
