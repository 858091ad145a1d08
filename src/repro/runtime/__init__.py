"""Fault-injecting discrete-event runtime (deployable-network model).

Where :mod:`repro.network` executes epochs as a lossless function-call
chain, this package drives them through a deterministic event scheduler
over faulty links: seeded per-edge loss/latency/duplication, burst
outages and node churn (:mod:`repro.runtime.faults`), a per-hop
ACK/retransmission layer with exponential backoff
(:mod:`repro.runtime.transport`), the clock-free hold-and-wait epoch
rules it shares with the TCP cluster (:mod:`repro.runtime.epochs`), and a
recovery path that converts undelivered subtrees into the paper's
reported-failure subset so the querier answers the exact SUM over the
survivors (:mod:`repro.runtime.recovery`).

Quick start::

    from repro import SIESProtocol, build_complete_tree
    from repro.datasets import DomainScaledWorkload
    from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator

    protocol = SIESProtocol(num_sources=64, seed=7)
    config = RuntimeConfig(num_epochs=20, plan=FaultPlan.uniform_loss(0.2), seed=7)
    workload = DomainScaledWorkload(64, scale=100, seed=7)
    metrics = RuntimeSimulator(
        protocol, build_complete_tree(64, fanout=4), workload, config
    ).run()
    print(metrics.delivery_rate(), metrics.retransmissions_total())
"""

from repro.runtime.events import EventScheduler, ScheduledEvent
from repro.runtime.faults import (
    BurstLoss,
    FaultInjector,
    FaultPlan,
    LinkProfile,
    LinkVerdict,
    NodeOutage,
)
from repro.runtime.epochs import EpochOutcome, EpochSchedule, MergeInbox, Settlement
from repro.runtime.metrics import EpochLedger, RuntimeRunMetrics
from repro.runtime.recovery import EpochRecovery, RecoveryLedger
from repro.runtime.simulator import RuntimeConfig, RuntimeSimulator
from repro.runtime.transport import (
    Parcel,
    ReliableTransport,
    RetransmitPolicy,
    TransportStats,
)

__all__ = [
    "EventScheduler",
    "ScheduledEvent",
    "LinkProfile",
    "BurstLoss",
    "NodeOutage",
    "FaultPlan",
    "LinkVerdict",
    "FaultInjector",
    "RetransmitPolicy",
    "Parcel",
    "TransportStats",
    "ReliableTransport",
    "EpochRecovery",
    "RecoveryLedger",
    "EpochOutcome",
    "EpochSchedule",
    "MergeInbox",
    "Settlement",
    "EpochLedger",
    "RuntimeRunMetrics",
    "RuntimeConfig",
    "RuntimeSimulator",
]
