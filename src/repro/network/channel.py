"""The (insecure) wireless channel with adversary hooks.

Every PSR hop goes through a :class:`Channel`, which

* classifies the edge (source→aggregator, aggregator→aggregator,
  aggregator→querier) and accumulates byte counters per class — the
  exact quantities of the paper's Table V and communication analysis;
* when built with a :class:`~repro.wire.codec.PSRCodec`, **encodes the
  PSR into its real byte frame** for the hop: the frame travels through
  frame-level interceptors (bit flips, truncation, header forgery),
  then the receiver decodes it — a malformed frame is *dropped with a
  typed* :class:`~repro.errors.WireDecodeError`, exactly how a real
  receiver discards an unparseable packet;
* passes the (decoded) message through registered PSR-level
  *interceptors* in order.  An interceptor models an adversary (or a
  lossy link): it may return the message unchanged, a modified message,
  or ``None`` to drop it.

Traffic is accounted twice per transmission: ``bytes_by_class`` keeps
the paper's *analytic* payload count (``psr.wire_size()``, the Table V
quantity), while ``frame_bytes_by_class`` records the **measured**
``len(frame)``.  The channel cross-checks the two on every hop —
``len(frame) == HEADER_LEN + wire_size() + payload_overhead`` — so the
analytic model can never silently drift from the bytes actually sent.

The channel is where the threat model lives: the paper's adversary "may
… infiltrate the wireless channel", so attacks in :mod:`repro.attacks`
are implemented purely as interceptors — protocols cannot tell the
difference, exactly as in a real deployment.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, WireDecodeError, WireEncodeError
from repro.network.messages import DataMessage

if TYPE_CHECKING:
    from repro.wire.codec import PSRCodec

__all__ = [
    "EdgeClass",
    "Channel",
    "Interceptor",
    "FrameInterceptor",
    "RunListener",
    "TrafficCounters",
]


class EdgeClass(enum.Enum):
    """The three edge classes whose traffic the paper reports."""

    SOURCE_TO_AGGREGATOR = "S-A"
    AGGREGATOR_TO_AGGREGATOR = "A-A"
    AGGREGATOR_TO_QUERIER = "A-Q"

    #: Members are singletons, so identity hashing is exact; it keeps
    #: the per-edge counter dicts off ``Enum.__hash__`` (a Python-level
    #: call hashing the member name) on every ARQ attempt.
    __hash__ = object.__hash__


#: A PSR-level interceptor sees each decoded message and may modify or
#: drop it (the post-decode adversary surface).
Interceptor = Callable[[DataMessage, EdgeClass], DataMessage | None]

#: A frame-level interceptor sees the raw frame bytes in flight and may
#: return them unchanged, corrupted, or ``None`` to drop the frame.
FrameInterceptor = Callable[[bytes, EdgeClass], "bytes | None"]

#: A run listener is notified whenever :meth:`Channel.begin_run`
#: installs a fresh counter set — observers (tracers, metric adapters)
#: use it to scope their own state to the run boundary.
RunListener = Callable[["TrafficCounters"], None]


@dataclass
class TrafficCounters:
    """Bytes and message counts accumulated per edge class.

    ``bytes_by_class`` is the *analytic* payload accounting (the paper's
    model, what Table V reports); ``frame_bytes_by_class`` is the
    *measured* ``len(frame)`` when the channel runs a codec.  The
    difference per message is the fixed frame header plus any audited
    codec overhead — never an unexplained drift (the channel raises on
    mismatch).  ``decode_failures_by_class`` counts frames a receiver
    discarded because they no longer parsed.
    """

    bytes_by_class: dict[EdgeClass, int] = field(default_factory=dict)
    messages_by_class: dict[EdgeClass, int] = field(default_factory=dict)
    frame_bytes_by_class: dict[EdgeClass, int] = field(default_factory=dict)
    decode_failures_by_class: dict[EdgeClass, int] = field(default_factory=dict)

    def record(self, edge_class: EdgeClass, size: int) -> None:
        self.bytes_by_class[edge_class] = self.bytes_by_class.get(edge_class, 0) + size
        self.messages_by_class[edge_class] = self.messages_by_class.get(edge_class, 0) + 1

    def record_frame(self, edge_class: EdgeClass, size: int) -> None:
        self.frame_bytes_by_class[edge_class] = (
            self.frame_bytes_by_class.get(edge_class, 0) + size
        )

    def record_decode_failure(self, edge_class: EdgeClass) -> None:
        self.decode_failures_by_class[edge_class] = (
            self.decode_failures_by_class.get(edge_class, 0) + 1
        )

    def bytes_for(self, edge_class: EdgeClass) -> int:
        return self.bytes_by_class.get(edge_class, 0)

    def frame_bytes_for(self, edge_class: EdgeClass) -> int:
        return self.frame_bytes_by_class.get(edge_class, 0)

    def decode_failures_for(self, edge_class: EdgeClass) -> int:
        return self.decode_failures_by_class.get(edge_class, 0)

    def messages_for(self, edge_class: EdgeClass) -> int:
        return self.messages_by_class.get(edge_class, 0)

    def mean_bytes_per_message(self, edge_class: EdgeClass) -> float:
        count = self.messages_by_class.get(edge_class, 0)
        return self.bytes_by_class.get(edge_class, 0) / count if count else 0.0

    def mean_frame_bytes_per_message(self, edge_class: EdgeClass) -> float:
        count = self.messages_by_class.get(edge_class, 0)
        return self.frame_bytes_by_class.get(edge_class, 0) / count if count else 0.0

    def total_bytes(self) -> int:
        return sum(self.bytes_by_class.values())

    def total_frame_bytes(self) -> int:
        return sum(self.frame_bytes_by_class.values())

    def reset(self) -> None:
        self.bytes_by_class.clear()
        self.messages_by_class.clear()
        self.frame_bytes_by_class.clear()
        self.decode_failures_by_class.clear()


class Channel:
    """Delivers :class:`DataMessage`s, counting traffic and applying attacks.

    With *codec* ``None`` the channel passes PSR objects through
    directly — the analytic mode third-party protocols without a wire
    format still use.  With a codec, every transmission is a real
    encode → (frame interceptors) → decode round trip.
    """

    def __init__(self, codec: "PSRCodec | None" = None) -> None:
        self.codec = codec
        self.counters = TrafficCounters()
        self._interceptors: list[Interceptor] = []
        self._frame_interceptors: list[FrameInterceptor] = []
        self._run_listeners: list[RunListener] = []

    def begin_run(self) -> TrafficCounters:
        """Install a fresh counter set for a new measured run.

        Simulator entry points call this so every run's ledger —
        including the measured ``frame_bytes_by_class`` — starts from
        zero instead of silently accumulating traffic from earlier runs
        on the same simulator.  The previous counters object is left
        untouched (a caller holding it keeps a consistent snapshot);
        reads through ``channel.counters`` see the new run.  Registered
        run listeners are notified with the fresh counters so observers
        (e.g. :class:`~repro.obs.adapters.ChannelTraceAdapter`) can
        scope their own state to the same boundary.
        """
        self.counters = TrafficCounters()
        for listener in list(self._run_listeners):
            listener(self.counters)
        return self.counters

    # -- run-boundary listeners ------------------------------------------

    def add_run_listener(self, listener: RunListener) -> None:
        """Register *listener* to be called on every :meth:`begin_run`."""
        if listener not in self._run_listeners:
            self._run_listeners.append(listener)

    def remove_run_listener(self, listener: RunListener) -> None:
        if listener in self._run_listeners:
            self._run_listeners.remove(listener)

    # -- interceptor management -----------------------------------------

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Attach an adversary/fault model; order of attachment = order applied."""
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.remove(interceptor)

    def add_frame_interceptor(self, interceptor: FrameInterceptor) -> None:
        """Attach a byte-level adversary (requires a codec: bytes to attack)."""
        if self.codec is None:
            raise ConfigurationError(
                "frame interceptors need a codec-backed channel — without a codec "
                "there are no frame bytes to attack"
            )
        self._frame_interceptors.append(interceptor)

    def clear_interceptors(self) -> None:
        """Detach every adversary, at both the frame and the PSR layer."""
        self._interceptors.clear()
        self._frame_interceptors.clear()

    # -- transmission ----------------------------------------------------

    def transmit(
        self,
        message: DataMessage,
        edge_class: EdgeClass,
        *,
        frame: bytes | None = None,
    ) -> DataMessage | None:
        """Send *message* over an *edge_class* link.

        Traffic is accounted for the legitimate transmission (the sender
        spent that energy regardless of what the adversary later does).
        On a codec-backed channel the PSR is encoded to its byte frame
        (or *frame* is transmitted verbatim when given — the ARQ layer
        passes the cached first-attempt encoding so retransmissions are
        byte-identical), attacked at the byte level, and decoded at the
        receiver; a frame that fails to decode is dropped and counted.
        Returns the possibly-modified message, or ``None`` if dropped.
        """
        self.counters.record(edge_class, message.wire_size())
        if self.codec is None:
            if frame is not None:
                raise ConfigurationError(
                    "pre-encoded frame passed to a channel without a codec"
                )
            return self._apply_psr_interceptors(message, edge_class)

        if frame is None:
            frame = self.codec.encode(message.psr)
        # Measured-vs-analytic cross-check: the bytes on the radio must
        # equal the model's size plus the audited framing overhead.
        expected = self.codec.framed_size(message.psr)
        if len(frame) != expected:
            raise WireEncodeError(
                f"{len(frame)}-byte frame for a PSR whose analytic size announces "
                f"{expected} bytes — wire format and model have diverged"
            )
        self.counters.record_frame(edge_class, len(frame))

        attacked: bytes | None = frame
        for frame_interceptor in self._frame_interceptors:
            attacked = frame_interceptor(attacked, edge_class)
            if attacked is None:
                return None
        try:
            psr = self.codec.decode(attacked)
        except WireDecodeError:
            # A real receiver discards what it cannot parse; the typed
            # error family is the *only* thing a malformed frame may
            # raise (fuzzed in tests/wire/test_fuzz.py).
            self.counters.record_decode_failure(edge_class)
            return None
        delivered = DataMessage(
            sender=message.sender,
            receiver=message.receiver,
            epoch=psr.epoch,
            psr=psr,
        )
        return self._apply_psr_interceptors(delivered, edge_class)

    def _apply_psr_interceptors(
        self, message: DataMessage, edge_class: EdgeClass
    ) -> DataMessage | None:
        current: DataMessage | None = message
        for interceptor in self._interceptors:
            if current is None:
                return None
            current = interceptor(current, edge_class)
        return current
