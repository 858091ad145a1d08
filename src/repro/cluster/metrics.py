"""Accounting for the TCP cluster: every frame explained, none silent.

The cluster's headline safety property is **zero silent drops**: every
envelope a sender decided to transmit is accounted for — written to the
wire, deliberately dropped by the seeded fault schedule, suppressed as a
duplicate, counted late, or rejected as undecodable.  The ledger encodes
that as conservation laws over per-:class:`~repro.network.channel.EdgeClass`
counters, checked by :meth:`ClusterTrafficLedger.check_conservation`
at the end of every run (and by the acceptance tests):

* ``attempts == drops_injected + frames_sent - dup_copies`` — each ARQ
  attempt either writes 1 or 2 copies or is swallowed by the schedule;
* ``frames_sent == frames_received`` — TCP loses nothing, so every copy
  written must be observed at the far end;
* ``frames_received == delivered + duplicates_suppressed + late_frames
  + decode_failures`` — every arrival is classified exactly once;
* ``acks_sent == acks_received`` and
  ``frames_received == acks_sent + acks_dropped`` — ACK discipline
  mirrors :class:`~repro.runtime.transport.ReliableTransport`: every
  received copy is acknowledged (unless the schedule drops the ACK).

Byte accounting is double-entry like the channel layer's
:class:`~repro.network.channel.TrafficCounters`: ``psr_bytes`` is the
*measured* inner protocol frame, counted **once per parcel** and
cross-checked against ``codec.framed_size()`` at the send site, while
``envelope_bytes`` counts every byte actually written (retransmissions
and duplicates included).

Determinism split: parcel fates, survivor sets and SUM values are
seed-determined (:mod:`repro.cluster.faults`), but *attempt counts* can
exceed the oracle's under slow ACKs, and latencies are real seconds.
:meth:`ClusterRunMetrics.deterministic_ledger` therefore exposes only
the seed-determined slice (what the differential tests compare), while
:meth:`ClusterRunMetrics.ledger` reports everything measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import SimulationError
from repro.network.channel import EdgeClass
from repro.runtime.metrics import EpochLedger

__all__ = ["EdgeCounters", "ClusterTrafficLedger", "ClusterRunMetrics"]


@dataclass
class EdgeCounters:
    """Frame/byte accounting for one edge class of the tree."""

    #: ARQ send decisions (first attempts + retransmissions).
    attempts: int = 0
    #: Attempts beyond the first per parcel.
    retransmissions: int = 0
    #: Attempts the fault schedule swallowed (no bytes written).
    drops_injected: int = 0
    #: Extra copies written by duplication verdicts.
    dup_copies: int = 0
    #: Data envelope frames actually written to a socket.
    frames_sent: int = 0
    #: Data envelope frames received and parsed at the far end.
    frames_received: int = 0
    #: First copy of a parcel, handed to the protocol role.
    delivered: int = 0
    #: Copies of an already-delivered parcel (dropped after ACK).
    duplicates_suppressed: int = 0
    #: Copies that arrived after their epoch had closed.
    late_frames: int = 0
    #: Envelopes whose inner protocol frame failed to decode.
    decode_failures: int = 0
    #: Parcels whose sender exhausted its retry budget.
    gave_up: int = 0
    #: ACK frames written / swallowed by the schedule / observed back.
    acks_sent: int = 0
    acks_dropped: int = 0
    acks_received: int = 0
    #: Measured inner protocol frame bytes, once per parcel
    #: (cross-checked against ``codec.framed_size()`` at the send site).
    psr_bytes: int = 0
    #: Bytes of every data envelope actually written (dup/retx included).
    envelope_bytes: int = 0
    #: Bytes of every ACK frame actually written.
    ack_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ClusterTrafficLedger:
    """Per-edge-class :class:`EdgeCounters` plus the conservation checks."""

    def __init__(self) -> None:
        self.by_class: dict[EdgeClass, EdgeCounters] = {}

    def edge(self, edge_class: EdgeClass) -> EdgeCounters:
        counters = self.by_class.get(edge_class)
        if counters is None:
            counters = EdgeCounters()
            self.by_class[edge_class] = counters
        return counters

    def total(self, field_name: str) -> int:
        return sum(getattr(c, field_name) for c in self.by_class.values())

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {
            edge.value: counters.as_dict()
            for edge, counters in sorted(self.by_class.items(), key=lambda item: item[0].value)
        }

    def check_conservation(self) -> None:
        """Raise :class:`~repro.errors.SimulationError` on any silent drop.

        Called once per run after all connections have drained; every
        law must balance on every edge class independently.
        """
        for edge, c in sorted(self.by_class.items(), key=lambda item: item[0].value):
            laws = [
                (
                    "attempts == drops_injected + frames_sent - dup_copies",
                    c.attempts,
                    c.drops_injected + c.frames_sent - c.dup_copies,
                ),
                ("frames_sent == frames_received", c.frames_sent, c.frames_received),
                (
                    "frames_received == delivered + duplicates_suppressed "
                    "+ late_frames + decode_failures",
                    c.frames_received,
                    c.delivered + c.duplicates_suppressed + c.late_frames + c.decode_failures,
                ),
                (
                    "frames_received == acks_sent + acks_dropped",
                    c.frames_received,
                    c.acks_sent + c.acks_dropped,
                ),
                ("acks_sent == acks_received", c.acks_sent, c.acks_received),
            ]
            for law, lhs, rhs in laws:
                if lhs != rhs:
                    raise SimulationError(
                        f"silent drop on {edge.value}: {law} violated ({lhs} != {rhs}); "
                        f"full counters: {c.as_dict()}"
                    )


@dataclass
class ClusterRunMetrics(EpochLedger):
    """Everything one cluster run measured (latencies in real seconds)."""

    window: int = field(kw_only=True)
    traffic: ClusterTrafficLedger = field(default_factory=ClusterTrafficLedger)
    #: Real seconds for the whole run (servers up → last epoch settled).
    wall_seconds: float = 0.0

    def epochs_per_second(self) -> float:
        return self.num_epochs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def frames_per_second(self) -> float:
        frames = self.traffic.total("frames_sent") + self.traffic.total("acks_sent")
        return frames / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def deterministic_ledger(self) -> dict:
        """The seed-determined slice: equal across reruns and equal to the
        :mod:`repro.cluster.faults` oracle's prediction on the same plan."""
        return {
            "protocol": self.protocol,
            "num_sources": self.num_sources,
            "seed": self.seed,
            "epochs": [self.epoch_row(e) for e in self.epochs],
        }

    def ledger(self) -> dict:
        """Full JSON-serializable run record (includes measured timing)."""
        out = self.deterministic_ledger()
        out.update(
            {
                "window": self.window,
                "num_epochs": self.num_epochs,
                "acceptance_rate": self.acceptance_rate(),
                "delivery_rate": self.delivery_rate(),
                "recovery": self.recovery.as_dict(),
                "traffic": self.traffic.as_dict(),
                "wall_seconds": self.wall_seconds,
                "epochs_per_second": self.epochs_per_second(),
                "frames_per_second": self.frames_per_second(),
                "latency": self.latency_summary(),
            }
        )
        return out
