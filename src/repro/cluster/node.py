"""Tree nodes as asyncio TCP servers speaking the wire format.

Every node of the aggregation tree — source, aggregator, querier — runs
inside one process as an asyncio task bound to its own real TCP server
socket on ``127.0.0.1`` (port 0, kernel-assigned).  Child nodes open a
client connection to their parent's server and keep it for the whole
run; data envelopes flow up that connection and transport ACKs flow
back down it, so the hop looks exactly like the paper's one-hop radio
link with a MAC-layer ARQ on top:

* each application send becomes one *parcel* (uid = epoch: a node sends
  exactly one PSR per epoch per hop) driven by :meth:`ClusterNode._send_reliable`
  — bounded retransmission with exponential backoff, jittered by the
  attempt's keyed verdict, mirroring
  :class:`~repro.runtime.transport.ReliableTransport`;
* the inner protocol frame is encoded **once** per parcel and carried
  byte-identical across retransmissions; only the envelope's attempt
  counter changes (see :mod:`repro.cluster.envelope`);
* the receiver delivers the first copy per ``(sender, uid)`` to the
  protocol role, suppresses duplicates, counts late and undecodable
  copies, and ACKs every received copy — unless the seeded fault
  schedule (:mod:`repro.cluster.faults`) swallows the ACK;
* a sender giving up does **not** retract a delivered copy: downstream
  correctness derives from the manifests receivers really merged.

Roles reuse the protocol role objects unchanged, under the epoch rules
the event runtime uses too (:mod:`repro.runtime.epochs`): the
aggregator holds and waits in a :class:`~repro.runtime.epochs.MergeInbox`
until its deadline or every expected child, and the querier settles the
epoch through a :class:`~repro.runtime.epochs.Settlement`.  The nodes
only feed those rules socket arrivals and :class:`ClusterClock` waits.
"""

from __future__ import annotations

import asyncio

from repro.errors import ConfigurationError, SimulationError, WireDecodeError, WireEncodeError
from repro.network.channel import EdgeClass
from repro.cluster.clock import ClusterClock
from repro.cluster.envelope import AckEnvelope, DataEnvelope, decode_envelope, encode_ack, encode_data
from repro.cluster.faults import StreamFaultInjector
from repro.cluster.framing import FrameReader, FrameWriter
from repro.cluster.metrics import ClusterTrafficLedger
from repro.protocols.base import AggregatorRole, PartialStateRecord, QuerierRole, SourceRole
from repro.runtime.epochs import EpochOutcome, EpochPlan, MergeInbox, Settlement
from repro.runtime.transport import RetransmitPolicy, TransportObserver, transport_event
from repro.wire.codec import PSRCodec

__all__ = ["ClusterNode", "SourceNode", "AggregatorNode", "QuerierNode"]

_HOST = "127.0.0.1"

# Dispositions of a first-copy arrival (ledger classification).
_DELIVERED = "delivered"
_LATE = "late"
_DECODE_FAILURE = "decode_failure"


class ClusterNode:
    """One tree node: a TCP server plus an optional uplink to its parent."""

    def __init__(
        self,
        node_id: int,
        *,
        ledger: ClusterTrafficLedger,
        injector: StreamFaultInjector,
        policy: RetransmitPolicy,
        clock: ClusterClock,
        edge_of_sender: dict[int, EdgeClass],
        observer: TransportObserver | None = None,
    ) -> None:
        self.node_id = node_id
        self.ledger = ledger
        self.injector = injector
        self.policy = policy
        self.clock = clock
        #: Same ``(kind, attrs)`` hook shape as the runtime's
        #: :class:`~repro.runtime.transport.ReliableTransport`, so one
        #: trace adapter observes both substrates.
        self.observer = observer
        #: child node id → edge class of the link it sends on.
        self._edge_of_sender = edge_of_sender
        self._server: asyncio.Server | None = None
        self.port: int | None = None
        # Uplink to the parent (absent on the querier).
        self._parent_id: int | None = None
        self._parent_edge: EdgeClass | None = None
        self._uplink_writer: FrameWriter | None = None
        self._uplink_stream: asyncio.StreamWriter | None = None
        self._ack_task: asyncio.Task | None = None
        #: parcel uid → event set when its ACK arrives.
        self._pending_acks: dict[int, asyncio.Event] = {}
        #: (sender, uid) pairs already delivered (duplicate suppression).
        self._seen: set[tuple[int, int]] = set()
        #: Frames that failed envelope parsing on an inbound connection —
        #: impossible from a well-behaved peer; conservation catches the
        #: imbalance and this counter names the culprit node.
        self.stream_errors = 0
        self._inbound: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Bind the node's server socket; returns the kernel-assigned port."""
        if self._server is not None:
            raise SimulationError(f"node {self.node_id} already started")
        self._server = await asyncio.start_server(self._on_connection, host=_HOST, port=0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def connect_uplink(self, parent_id: int, port: int, edge: EdgeClass) -> None:
        """Open the persistent client connection to the parent's server."""
        if self._uplink_writer is not None:
            raise SimulationError(f"node {self.node_id} already has an uplink")
        reader, writer = await asyncio.open_connection(_HOST, port)
        self._parent_id = parent_id
        self._parent_edge = edge
        self._uplink_stream = writer
        self._uplink_writer = FrameWriter(writer)
        self._ack_task = asyncio.ensure_future(self._ack_loop(FrameReader(reader)))

    async def close_uplink(self) -> None:
        """Half-close the uplink (FIN), drain remaining ACKs, then close.

        The half-close ordering is what keeps the ACK conservation law
        exact at shutdown: the parent sees our EOF only after all data,
        replies to everything, then closes its side — and our ACK loop
        reads every byte the parent wrote before observing EOF.
        """
        if self._uplink_stream is None:
            return
        if self._uplink_stream.can_write_eof():
            self._uplink_stream.write_eof()
        if self._ack_task is not None:
            await self._ack_task
        self._uplink_stream.close()
        await self._uplink_stream.wait_closed()
        self._uplink_stream = None
        self._uplink_writer = None

    async def stop(self) -> None:
        """Stop accepting, then wait for inbound handlers to drain."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._inbound):
            await task

    # ------------------------------------------------------------------
    # Inbound: data envelopes from children
    # ------------------------------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._inbound.add(task)
        task.add_done_callback(self._inbound.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frames = FrameReader(reader)
        acks = FrameWriter(writer)
        try:
            while True:
                try:
                    frame = await frames.read_frame()
                except WireDecodeError:
                    self.stream_errors += 1
                    break
                if frame is None:
                    break
                try:
                    envelope = decode_envelope(frame)
                except WireDecodeError:
                    self.stream_errors += 1
                    break
                if not isinstance(envelope, DataEnvelope):
                    # Children never send ACKs upstream; a stray one means
                    # the peer is broken — drop the connection.
                    self.stream_errors += 1
                    break
                await self._handle_data(envelope, acks)
        finally:
            writer.close()
            await writer.wait_closed()

    def _classify(self, sender: int) -> EdgeClass:
        edge = self._edge_of_sender.get(sender)
        if edge is None:
            raise SimulationError(
                f"node {self.node_id} received a frame from {sender}, which is "
                "not one of its children in the aggregation tree"
            )
        return edge

    def _emit(
        self,
        kind: str,
        epoch: int,
        uid: int,
        attempt: int,
        edge: EdgeClass,
        sender: int,
        receiver: int,
        **extra: object,
    ) -> None:
        if self.observer is not None:
            self.observer(
                kind,
                transport_event(
                    self.clock.now(), epoch, uid, attempt, edge, sender, receiver, **extra
                ),
            )

    async def _handle_data(self, envelope: DataEnvelope, acks: FrameWriter) -> None:
        edge = self._classify(envelope.sender)
        counters = self.ledger.edge(edge)
        counters.frames_received += 1
        key = (envelope.sender, envelope.uid)
        if key in self._seen:
            counters.duplicates_suppressed += 1
            disposition_kind = "duplicate"
        else:
            self._seen.add(key)
            disposition = self._deliver(envelope)
            if disposition == _DELIVERED:
                counters.delivered += 1
                disposition_kind = "deliver"
            elif disposition == _LATE:
                counters.late_frames += 1
                disposition_kind = "late"
            else:
                counters.decode_failures += 1
                disposition_kind = "decode_failure"
        hop = (envelope.epoch, envelope.uid, envelope.attempt, edge, envelope.sender, self.node_id)
        self._emit(disposition_kind, *hop)
        # Transport ACK for every received copy — even duplicates, even
        # undecodable inner frames (the *transport* delivered fine) —
        # unless the seeded schedule swallows it on the way back.
        if self.injector.ack_verdict(
            envelope.sender, self.node_id, edge, envelope.uid, envelope.attempt
        ):
            counters.acks_dropped += 1
            self._emit("ack_lost", *hop)
        else:
            ack = encode_ack(epoch=envelope.epoch, uid=envelope.uid, attempt=envelope.attempt)
            await acks.write_frame(ack)
            counters.acks_sent += 1
            counters.ack_bytes += len(ack)

    def _deliver(self, envelope: DataEnvelope) -> str:
        """Role-specific handling of a first copy; returns its disposition."""
        raise SimulationError(f"node {self.node_id} does not accept data frames")

    # ------------------------------------------------------------------
    # Outbound: the per-hop ARQ over the uplink
    # ------------------------------------------------------------------

    async def _ack_loop(self, frames: FrameReader) -> None:
        while True:
            try:
                frame = await frames.read_frame()
            except WireDecodeError:
                self.stream_errors += 1
                return
            if frame is None:
                return
            try:
                envelope = decode_envelope(frame)
            except WireDecodeError:
                self.stream_errors += 1
                return
            if not isinstance(envelope, AckEnvelope) or self._parent_edge is None:
                self.stream_errors += 1
                return
            self.ledger.edge(self._parent_edge).acks_received += 1
            event = self._pending_acks.get(envelope.uid)
            if event is not None:
                event.set()

    async def _send_reliable(
        self, *, epoch: int, uid: int, manifest: frozenset[int], inner: bytes
    ) -> bool:
        """Run one parcel through the ARQ; True once ACKed, False on give-up.

        The delivered-or-not outcome is the keyed fault schedule's, not
        the event loop's: an attempt the schedule spares is physically
        written (TCP then delivers it), an attempt it swallows is never
        written.  Slow ACKs can only add extra attempts whose copies the
        receiver suppresses — see :func:`repro.cluster.faults.parcel_fate`.
        """
        if self._uplink_writer is None or self._parent_edge is None or self._parent_id is None:
            raise SimulationError(f"node {self.node_id} has no uplink to send on")
        edge, parent = self._parent_edge, self._parent_id
        counters = self.ledger.edge(edge)
        event = asyncio.Event()
        self._pending_acks[uid] = event
        try:
            for attempt in range(self.policy.max_attempts):
                counters.attempts += 1
                if attempt:
                    counters.retransmissions += 1
                self._emit("attempt", epoch, uid, attempt, edge, self.node_id, parent)
                verdict = self.injector.data_verdict(self.node_id, parent, edge, uid, attempt)
                if verdict.lost:
                    counters.drops_injected += 1
                    self._emit(
                        "drop", epoch, uid, attempt, edge, self.node_id, parent, cause="link"
                    )
                else:
                    frame = encode_data(
                        epoch=epoch,
                        sender=self.node_id,
                        uid=uid,
                        attempt=attempt,
                        manifest=manifest,
                        inner=inner,
                    )
                    for _ in range(verdict.copies):
                        await self._uplink_writer.write_frame(frame)
                        counters.frames_sent += 1
                        counters.envelope_bytes += len(frame)
                    counters.dup_copies += verdict.copies - 1
                timeout = self.policy.timeout_for(attempt, verdict.backoff)
                try:
                    await self.clock.wait_for(event.wait(), timeout)
                    return True
                except TimeoutError:
                    continue
            counters.gave_up += 1
            last = self.policy.max_attempts - 1
            self._emit("give_up", epoch, uid, last, edge, self.node_id, parent)
            return False
        finally:
            del self._pending_acks[uid]

    async def _send_psr(
        self,
        codec: PSRCodec,
        *,
        epoch: int,
        psr: PartialStateRecord,
        manifest: frozenset[int],
    ) -> bool:
        """Encode *psr* once, cross-check the size contract, run the ARQ."""
        if self._parent_edge is None:
            raise SimulationError(f"node {self.node_id} has no uplink to send on")
        inner = codec.encode(psr)
        expected = codec.framed_size(psr)
        if len(inner) != expected:
            raise WireEncodeError(
                f"{len(inner)}-byte frame for a PSR whose analytic size announces "
                f"{expected} bytes — wire format and model have diverged"
            )
        self.ledger.edge(self._parent_edge).psr_bytes += len(inner)
        return await self._send_reliable(epoch=epoch, uid=epoch, manifest=manifest, inner=inner)


class SourceNode(ClusterNode):
    """Initialization phase ``I`` at a leaf: value → PSR → uplink."""

    def __init__(self, node_id: int, role: SourceRole, codec: PSRCodec, **kwargs) -> None:
        super().__init__(node_id, edge_of_sender={}, **kwargs)
        self.role = role
        self.codec = codec

    async def run_epoch(self, epoch: int, value: int) -> bool:
        psr = self.role.initialize(epoch, value)
        return await self._send_psr(
            self.codec, epoch=epoch, psr=psr, manifest=frozenset((self.node_id,))
        )


class AggregatorNode(ClusterNode):
    """Merging phase ``M``: hold-and-wait, then forward PSR + manifest."""

    def __init__(
        self,
        node_id: int,
        role: AggregatorRole,
        codec: PSRCodec,
        *,
        is_root: bool,
        **kwargs,
    ) -> None:
        super().__init__(node_id, **kwargs)
        self.role = role
        self.codec = codec
        self.is_root = is_root
        #: Open epochs: inbox, and the event set once every child arrived.
        self._epochs: dict[int, tuple[MergeInbox, asyncio.Event]] = {}

    def _deliver(self, envelope: DataEnvelope) -> str:
        entry = self._epochs.get(envelope.epoch)
        if entry is None:
            return _LATE  # never opened here, or already merged and closed
        try:
            psr = self.codec.decode(envelope.inner)
        except WireDecodeError:
            return _DECODE_FAILURE
        inbox, complete = entry
        if inbox.offer(psr, envelope.manifest):
            complete.set()
        return _DELIVERED

    def open_epoch(self, epoch: int, expected: int) -> None:
        """Register the epoch's inbox *before* any child may send.

        Synchronous on purpose: the orchestrator opens every epoch on
        every node in one event-loop step, then launches the sources —
        so an early arrival can never race an unregistered inbox.
        """
        if epoch in self._epochs:
            raise SimulationError(f"aggregator {self.node_id} already opened epoch {epoch}")
        self._epochs[epoch] = (MergeInbox(expected), asyncio.Event())

    async def run_epoch(self, epoch: int, hold: float) -> None:
        """Hold until deadline *hold* (or all expected children), merge, forward."""
        entry = self._epochs.get(epoch)
        if entry is None:
            raise SimulationError(
                f"aggregator {self.node_id} ran epoch {epoch} without opening it"
            )
        inbox, complete = entry
        try:
            await self.clock.wait_for(complete.wait(), hold)
        except TimeoutError:
            pass  # deadline merge: take whatever arrived
        forward = inbox.close(self.role, epoch, is_root=self.is_root)
        del self._epochs[epoch]  # later copies find no inbox: late
        if forward is not None:
            psr, manifest = forward
            await self._send_psr(self.codec, epoch=epoch, psr=psr, manifest=manifest)


class QuerierNode(ClusterNode):
    """Evaluation phase ``E``: recovery subset + exact SUM over survivors."""

    def __init__(
        self,
        node_id: int,
        role: QuerierRole,
        codec: PSRCodec,
        *,
        num_sources: int,
        **kwargs,
    ) -> None:
        super().__init__(node_id, **kwargs)
        self.role = role
        self.codec = codec
        self.num_sources = num_sources
        #: Open epochs: settlement, and the event set once it settled.
        self._epochs: dict[int, tuple[Settlement, asyncio.Event]] = {}

    def _deliver(self, envelope: DataEnvelope) -> str:
        entry = self._epochs.get(envelope.epoch)
        if entry is None or entry[0].settled:
            return _LATE
        try:
            psr = self.codec.decode(envelope.inner)
        except WireDecodeError:
            return _DECODE_FAILURE
        settlement, settled = entry
        settlement.settle(
            psr,
            envelope.manifest,
            now=self.clock.now(),
            querier=self.role,
            num_sources=self.num_sources,
        )
        settled.set()
        return _DELIVERED

    def open_epoch(self, plan: EpochPlan) -> None:
        """Register the epoch (and stamp its start) before any source sends."""
        if plan.epoch in self._epochs:
            raise SimulationError(f"querier already opened epoch {plan.epoch}")
        self._epochs[plan.epoch] = (Settlement(plan, self.clock.now()), asyncio.Event())

    async def run_epoch(self, epoch: int, deadline: float) -> EpochOutcome:
        """Wait up to *deadline* seconds for the final PSR; settle the epoch."""
        entry = self._epochs.get(epoch)
        if entry is None:
            raise SimulationError(f"querier ran epoch {epoch} without opening it")
        settlement, settled = entry
        try:
            await self.clock.wait_for(settled.wait(), deadline)
        except TimeoutError:
            pass
        del self._epochs[epoch]  # later copies find no settlement: late
        return settlement.expire()


def require_codec(codec: PSRCodec | None, protocol_name: str) -> PSRCodec:
    """The cluster cannot run a protocol that has no wire format."""
    if codec is None:
        raise ConfigurationError(
            f"protocol {protocol_name!r} provides no wire codec; the TCP cluster "
            "only transports real byte frames"
        )
    return codec
