"""The fault-injecting event runtime driving epochs end to end.

:class:`RuntimeSimulator` executes the same aggregation process as
:class:`~repro.network.simulator.NetworkSimulator` — initialization at
the sources, bottom-up merging, evaluation at the querier — but over a
*faulty network* instead of a lossless function call chain:

* every hop goes through the per-hop ARQ of
  :mod:`repro.runtime.transport` (ACKs, timeouts, bounded
  retransmission with exponential backoff) and the seeded fault
  injector (:mod:`repro.runtime.faults`);
* aggregators **hold-and-wait** and the querier settles each epoch
  over the paper's reported-failure subset (Section IV-B) — graceful
  degradation instead of a spurious
  :class:`~repro.errors.IntegrityError`.  Those rules live in
  :mod:`repro.runtime.epochs`, shared with the TCP cluster; this
  module only feeds them scheduler events.

The runtime reuses the existing role objects and
:class:`~repro.network.channel.Channel` unchanged, so every adversary
interceptor from :mod:`repro.attacks` works here too — and sees
retransmissions as extra attack opportunities, exactly like a real
radio.  All scheduling is logical-clock based and seeded; see
:meth:`RuntimeRunMetrics.ledger` for the determinism contract.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.network.channel import Channel
from repro.network.messages import DataMessage
from repro.network.simulator import Workload
from repro.network.topology import QUERIER_NODE_ID, AggregationTree
from repro.protocols.base import OpCounter, PartialStateRecord, SecureAggregationProtocol
from repro.runtime.epochs import EpochOutcome, EpochSchedule, MergeInbox, Settlement
from repro.runtime.events import EventScheduler
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.metrics import RuntimeRunMetrics
from repro.runtime.transport import (
    ReliableTransport,
    RetransmitPolicy,
    TransportObserver,
    transport_event,
)
from repro.utils.validation import check_positive_int

__all__ = ["RuntimeConfig", "RuntimeSimulator"]


@dataclass
class RuntimeConfig:
    """Knobs for one event-runtime run."""

    num_epochs: int = 20
    #: First epoch index (epoch 0 is reserved for setup, as elsewhere).
    start_epoch: int = 1
    #: Logical time between consecutive epoch starts; epochs pipeline
    #: freely when smaller than an epoch's end-to-end span.
    epoch_interval: float = 500.0
    #: Merge-deadline spacing per tree level: an aggregator at height h
    #: merges what arrived by ``epoch_start + hold_time * h``.
    hold_time: float = 250.0
    #: Extra wait at the querier beyond the root's deadline before the
    #: epoch is declared unrecovered.
    querier_slack: float = 250.0
    #: Per-hop ARQ shape (see :class:`RetransmitPolicy`).
    policy: RetransmitPolicy = field(default_factory=RetransmitPolicy)
    #: What the network does to packets (see :class:`FaultPlan`).
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Seed of the fault oracle (link verdicts, latencies, backoff jitter).
    seed: int = 0
    #: Source ids that are known-failed up front (never report).
    failed_sources: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        check_positive_int("num_epochs", self.num_epochs)
        if self.epoch_interval <= 0 or self.hold_time <= 0 or self.querier_slack < 0:
            raise SimulationError(
                "epoch_interval and hold_time must be positive, querier_slack non-negative"
            )


class RuntimeSimulator:
    """Runs a protocol over a lossy, latency-bearing, retransmitting network."""

    def __init__(
        self,
        protocol: SecureAggregationProtocol,
        tree: AggregationTree,
        workload: Workload,
        config: RuntimeConfig | None = None,
    ) -> None:
        if tree.num_sources != protocol.num_sources:
            raise SimulationError(
                f"topology has {tree.num_sources} sources but protocol was set up "
                f"for {protocol.num_sources}"
            )
        self.protocol = protocol
        self.tree = tree
        self.workload = workload
        self.config = config or RuntimeConfig()
        # Codec-backed channel: the ARQ below transmits real byte frames
        # (encoded once per parcel, retransmitted byte-identically).
        self.channel = Channel(codec=protocol.wire_codec())
        self.scheduler = EventScheduler()
        self.injector = FaultInjector(self.config.plan, seed=self.config.seed)
        self.transport = ReliableTransport(
            self.scheduler, self.injector, self.channel, self.config.policy
        )
        self.schedule = EpochSchedule(
            tree, hold_time=self.config.hold_time, querier_slack=self.config.querier_slack
        )

        self.source_ops = OpCounter()
        self.aggregator_ops = OpCounter()
        self.querier_ops = OpCounter()
        self._sources = {
            sid: protocol.create_source(sid, ops=self.source_ops) for sid in tree.source_ids
        }
        self._aggregators = {
            aid: protocol.create_aggregator(ops=self.aggregator_ops)
            for aid in tree.aggregator_ids
        }
        self._querier = protocol.create_querier(ops=self.querier_ops)
        # In-flight epochs only: both maps drop an epoch at its querier
        # deadline, after which every copy for it is late.
        self._inboxes: dict[int, dict[int, MergeInbox]] = {}
        self._settlements: dict[int, Settlement] = {}
        self._outcomes: list[EpochOutcome] = []
        self._late: Counter[int] = Counter()
        self._ran = False

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def set_observer(self, observer: TransportObserver | None) -> None:
        """Install an observability hook over the whole runtime.

        The hook receives every transport event (``attempt``, ``drop``,
        ``deliver``, ``duplicate``, ``ack_lost``, ``give_up``) plus the
        simulator-level ``late`` events for copies that arrived after
        their receiver closed the epoch.  :mod:`repro.obs` builds the
        unified trace from exactly this stream.
        """
        self.transport.observer = observer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, num_epochs: int | None = None) -> RuntimeRunMetrics:
        """Execute the configured epochs through the event loop.

        One-shot: transports, fault streams and dedup state are bound
        to this run, so build a fresh :class:`RuntimeSimulator` for a
        fresh run (the determinism tests rely on exactly that).
        """
        if self._ran:
            raise SimulationError(
                "RuntimeSimulator.run is one-shot; construct a new simulator "
                "for an independent (and reproducible) run"
            )
        self._ran = True
        epochs = num_epochs if num_epochs is not None else self.config.num_epochs
        check_positive_int("num_epochs", epochs)

        for offset in range(epochs):
            epoch = self.config.start_epoch + offset
            self.scheduler.call_at(
                offset * self.config.epoch_interval,
                lambda e=epoch: self._start_epoch(e),
            )
        self.scheduler.run()

        for outcome in self._outcomes:
            # Stragglers can arrive (and be classified late) after an
            # epoch settled; fold in the final tally.
            outcome.late_arrivals = self._late[outcome.epoch]
        metrics = RuntimeRunMetrics(
            protocol=self.protocol.name,
            num_sources=self.tree.num_sources,
            seed=self.config.seed,
            transport=self.transport.stats,
            traffic=self.channel.counters,
            source_ops=self.source_ops,
            aggregator_ops=self.aggregator_ops,
            querier_ops=self.querier_ops,
            events_processed=self.scheduler.events_processed,
        )
        metrics.record(self._outcomes)
        return metrics

    # ------------------------------------------------------------------
    # Epoch lifecycle, driven by the rules of repro.runtime.epochs
    # ------------------------------------------------------------------

    def _start_epoch(self, epoch: int) -> None:
        now = self.scheduler.now
        failed = self.config.failed_sources
        plan = self.schedule.open(
            epoch, lambda sid: sid in failed or self.injector.node_down(sid, now)
        )
        self._inboxes[epoch] = {
            aid: MergeInbox(plan.expected[aid]) for aid in self.schedule.merge_order
        }
        self._settlements[epoch] = Settlement(plan, now)

        for sid in self.tree.source_ids:
            if sid in plan.attempted:
                psr = self._sources[sid].initialize(epoch, self.workload(sid, epoch))
                self._send(epoch, sid, psr, frozenset((sid,)))
        for aid in self.schedule.merge_order:
            self.scheduler.call_at(
                self.schedule.merge_deadline(aid, now),
                lambda a=aid, e=epoch: self._merge(e, a),
            )
        self.scheduler.call_at(
            self.schedule.querier_deadline(now), lambda e=epoch: self._expire(e)
        )

    def _send(
        self, epoch: int, sender: int, psr: PartialStateRecord, manifest: frozenset[int]
    ) -> None:
        parent = self.tree.parent(sender)
        receiver = QUERIER_NODE_ID if parent is None else parent
        self.transport.send(
            DataMessage(sender, receiver, epoch, psr),
            self.tree.edge_class(sender, receiver),
            manifest,
            on_deliver=lambda message, manifest: self._on_delivery(epoch, message, manifest),
        )

    def _on_delivery(
        self, epoch: int, message: DataMessage, manifest: frozenset[int]
    ) -> None:
        receiver = message.receiver
        if receiver == QUERIER_NODE_ID:
            settlement = self._settlements.get(epoch)
            if settlement is not None and not settlement.settled:
                settlement.settle(
                    message.psr,
                    manifest,
                    now=self.scheduler.now,
                    querier=self._querier,
                    num_sources=self.tree.num_sources,
                )
                return
        else:
            inbox = self._inboxes.get(epoch, {}).get(receiver)
            if inbox is not None and not inbox.closed:
                if inbox.offer(message.psr, manifest):
                    self._merge(epoch, receiver)  # every expected child is in
                return
        self._late[epoch] += 1
        observer = self.transport.observer
        if observer is not None:
            edge = self.tree.edge_class(message.sender, receiver)
            observer(
                "late",
                transport_event(
                    self.scheduler.now, epoch, None, None, edge, message.sender, receiver
                ),
            )

    def _merge(self, epoch: int, aid: int) -> None:
        inbox = self._inboxes[epoch][aid]
        if inbox.closed:
            return  # early merge already ran; the deadline event no-ops
        forward = inbox.close(
            self._aggregators[aid],
            epoch,
            is_root=aid == self.tree.root_id,
            alive=not self.injector.node_down(aid, self.scheduler.now),
        )
        if forward is not None:
            self._send(epoch, aid, *forward)

    def _expire(self, epoch: int) -> None:
        """Querier deadline: settle the epoch (lost if nothing arrived), drop its state."""
        del self._inboxes[epoch]
        self._outcomes.append(self._settlements.pop(epoch).expire())
