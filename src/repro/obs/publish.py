"""Publishers: native per-substrate metrics → the unified registry.

Each substrate keeps its ad-hoc ledger shape for backward compatibility;
these functions map every ledger into one metric namespace so
``repro metrics`` (and any Prometheus scrape of an exported file) reads
identical names whichever substrate produced the run:

==========================================  =======================================
metric                                      labels
==========================================  =======================================
``sies_traffic_bytes_total``                ``substrate, edge`` (analytic payload)
``sies_traffic_messages_total``             ``substrate, edge``
``sies_frame_bytes_total``                  ``substrate, edge`` (measured frames)
``sies_decode_failures_total``              ``substrate, edge``
``sies_transport_attempts_total``           ``substrate, edge``
``sies_transport_retransmissions_total``    ``substrate, edge``
``sies_transport_delivered_total``          ``substrate, edge``
``sies_transport_duplicates_total``         ``substrate, edge`` (suppressed copies)
``sies_transport_late_total``               ``substrate, edge``
``sies_transport_gave_up_total``            ``substrate, edge``
``sies_transport_acks_sent_total``          ``substrate, edge``
``sies_transport_acks_lost_total``          ``substrate, edge``
``sies_epochs_total``                       ``substrate``
``sies_epochs_accepted_total``              ``substrate``
``sies_epochs_unrecovered_total``           ``substrate``
``sies_delivery_rate``                      ``substrate`` (gauge)
``sies_acceptance_rate``                    ``substrate`` (gauge)
``sies_completion_latency``                 ``substrate`` (histogram, fixed buckets)
``sies_ops_total``                          ``substrate, role, op``
``sies_phase_calls_total``                  ``substrate, phase`` (profiler)
``sies_phase_seconds_total``                ``substrate, phase`` (profiler)
==========================================  =======================================

Substrate label values: ``network`` (analytic), ``runtime`` (event
runtime), ``cluster`` (asyncio TCP).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.channel import TrafficCounters
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

if TYPE_CHECKING:
    from repro.cluster.metrics import ClusterRunMetrics
    from repro.network.metrics import RunMetrics
    from repro.protocols.base import OpCounter
    from repro.runtime.metrics import EpochLedger, RuntimeRunMetrics

__all__ = [
    "publish_traffic",
    "publish_ops",
    "publish_network_metrics",
    "publish_runtime_metrics",
    "publish_cluster_metrics",
]

_EDGE_LABELS = ("substrate", "edge")


def _traffic_counters(registry: MetricsRegistry) -> tuple:
    """The four per-edge traffic counters, in (payload bytes, messages,
    frame bytes, decode failures) order."""
    return (
        registry.counter(
            "sies_traffic_bytes_total", "Analytic payload bytes per edge class", _EDGE_LABELS
        ),
        registry.counter("sies_traffic_messages_total", "Messages per edge class", _EDGE_LABELS),
        registry.counter(
            "sies_frame_bytes_total", "Measured wire-frame bytes per edge class", _EDGE_LABELS
        ),
        registry.counter(
            "sies_decode_failures_total", "Frames discarded as unparseable", _EDGE_LABELS
        ),
    )


def publish_traffic(
    counters: TrafficCounters, registry: MetricsRegistry, *, substrate: str
) -> None:
    """Channel-layer byte/message accounting (all substrates share it)."""
    traffic_bytes, messages, frame_bytes, decode_failures = _traffic_counters(registry)
    for edge, count in sorted(counters.bytes_by_class.items(), key=lambda kv: kv[0].value):
        traffic_bytes.inc(count, substrate=substrate, edge=edge.value)
    for edge, count in sorted(counters.messages_by_class.items(), key=lambda kv: kv[0].value):
        messages.inc(count, substrate=substrate, edge=edge.value)
    for edge, count in sorted(
        counters.frame_bytes_by_class.items(), key=lambda kv: kv[0].value
    ):
        frame_bytes.inc(count, substrate=substrate, edge=edge.value)
    for edge, count in sorted(
        counters.decode_failures_by_class.items(), key=lambda kv: kv[0].value
    ):
        decode_failures.inc(count, substrate=substrate, edge=edge.value)


def publish_ops(
    registry: MetricsRegistry,
    *,
    substrate: str,
    source: "OpCounter",
    aggregator: "OpCounter",
    querier: "OpCounter",
) -> None:
    """Primitive-operation counts per role under one metric."""
    ops = registry.counter(
        "sies_ops_total", "Primitive operations per role", ("substrate", "role", "op")
    )
    for role, counter in (("source", source), ("aggregator", aggregator), ("querier", querier)):
        for op, count in sorted(counter.counts.items()):
            if count:
                ops.inc(count, substrate=substrate, role=role, op=op)


def _publish_epoch_outcomes(
    registry: MetricsRegistry,
    *,
    substrate: str,
    total: int,
    accepted: int,
    unrecovered: int,
    delivery_rate: float,
    acceptance_rate: float,
    latencies: list[float],
) -> None:
    registry.counter("sies_epochs_total", "Epochs executed", ("substrate",)).inc(
        total, substrate=substrate
    )
    registry.counter(
        "sies_epochs_accepted_total", "Epochs whose exact SUM was accepted", ("substrate",)
    ).inc(accepted, substrate=substrate)
    registry.counter(
        "sies_epochs_unrecovered_total", "Epochs lost end to end", ("substrate",)
    ).inc(unrecovered, substrate=substrate)
    registry.gauge(
        "sies_delivery_rate", "Fraction of attempted contributions that survived", ("substrate",)
    ).set(delivery_rate, substrate=substrate)
    registry.gauge(
        "sies_acceptance_rate", "Fraction of epochs accepted by the querier", ("substrate",)
    ).set(acceptance_rate, substrate=substrate)
    latency = registry.histogram(
        "sies_completion_latency",
        "Epoch completion latency (substrate-native time units)",
        DEFAULT_LATENCY_BUCKETS,
        ("substrate",),
    )
    for sample in latencies:
        latency.observe(sample, substrate=substrate)


def _publish_ledger_outcomes(
    metrics: "EpochLedger", registry: MetricsRegistry, *, substrate: str
) -> None:
    """The epoch-outcome half shared by the runtime and cluster publishers."""
    _publish_epoch_outcomes(
        registry,
        substrate=substrate,
        total=metrics.num_epochs,
        accepted=sum(1 for e in metrics.epochs if e.accepted),
        unrecovered=sum(1 for e in metrics.epochs if not e.recovery.converged),
        delivery_rate=metrics.delivery_rate(),
        acceptance_rate=metrics.acceptance_rate(),
        latencies=metrics.completion_latencies(),
    )


def publish_network_metrics(metrics: "RunMetrics", registry: MetricsRegistry) -> None:
    """Analytic :class:`~repro.network.metrics.RunMetrics` → registry."""
    substrate = "network"
    publish_traffic(metrics.traffic, registry, substrate=substrate)
    publish_ops(
        registry,
        substrate=substrate,
        source=metrics.source_ops,
        aggregator=metrics.aggregator_ops,
        querier=metrics.querier_ops,
    )
    accepted = sum(
        1 for e in metrics.epochs if e.result is not None and e.security_failure is None
    )
    unrecovered = sum(1 for e in metrics.epochs if e.security_failure is not None)
    _publish_epoch_outcomes(
        registry,
        substrate=substrate,
        total=metrics.num_epochs,
        accepted=accepted,
        unrecovered=unrecovered,
        delivery_rate=1.0,
        acceptance_rate=accepted / metrics.num_epochs if metrics.num_epochs else 1.0,
        latencies=[],
    )


def _publish_transport_dicts(
    registry: MetricsRegistry, *, substrate: str, fields: dict[str, dict]
) -> None:
    help_by_name = {
        "sies_transport_attempts_total": "Physical ARQ attempts",
        "sies_transport_retransmissions_total": "Attempts beyond the first per parcel",
        "sies_transport_delivered_total": "First copies handed to the application",
        "sies_transport_duplicates_total": "Copies suppressed by receiver dedup",
        "sies_transport_late_total": "Copies arriving after their merge deadline",
        "sies_transport_gave_up_total": "Parcels whose sender exhausted its retries",
        "sies_transport_acks_sent_total": "Transport ACKs sent",
        "sies_transport_acks_lost_total": "Transport ACKs swallowed in flight",
    }
    for name, per_edge in fields.items():
        metric = registry.counter(name, help_by_name[name], _EDGE_LABELS)
        for edge, count in sorted(per_edge.items(), key=lambda kv: getattr(kv[0], "value", kv[0])):
            edge_value = getattr(edge, "value", edge)
            if count:
                metric.inc(count, substrate=substrate, edge=edge_value)


def publish_runtime_metrics(metrics: "RuntimeRunMetrics", registry: MetricsRegistry) -> None:
    """Event-runtime ledger → registry (logical-time latencies)."""
    substrate = "runtime"
    publish_traffic(metrics.traffic, registry, substrate=substrate)
    publish_ops(
        registry,
        substrate=substrate,
        source=metrics.source_ops,
        aggregator=metrics.aggregator_ops,
        querier=metrics.querier_ops,
    )
    transport = metrics.transport
    _publish_transport_dicts(
        registry,
        substrate=substrate,
        fields={
            "sies_transport_attempts_total": transport.attempts,
            "sies_transport_retransmissions_total": transport.retransmissions,
            "sies_transport_delivered_total": transport.delivered,
            "sies_transport_duplicates_total": transport.duplicates_suppressed,
            "sies_transport_gave_up_total": transport.gave_up,
            "sies_transport_acks_sent_total": transport.acks_sent,
            "sies_transport_acks_lost_total": transport.acks_lost,
        },
    )
    late = registry.counter(
        "sies_transport_late_total",
        "Copies arriving after their merge deadline",
        _EDGE_LABELS,
    )
    late_total = sum(e.late_arrivals for e in metrics.epochs)
    if late_total:
        late.inc(late_total, substrate=substrate, edge="all")
    _publish_ledger_outcomes(metrics, registry, substrate=substrate)


def publish_cluster_metrics(metrics: "ClusterRunMetrics", registry: MetricsRegistry) -> None:
    """TCP-cluster ledger → registry (real-seconds latencies)."""
    substrate = "cluster"
    ledger = metrics.traffic
    by_edge = sorted(ledger.by_class.items(), key=lambda kv: kv[0].value)
    traffic_bytes, messages, frame_bytes, decode_failures = _traffic_counters(registry)
    for edge, c in by_edge:
        if c.psr_bytes:
            traffic_bytes.inc(c.psr_bytes, substrate=substrate, edge=edge.value)
        if c.delivered:
            messages.inc(c.delivered, substrate=substrate, edge=edge.value)
        if c.envelope_bytes:
            frame_bytes.inc(c.envelope_bytes, substrate=substrate, edge=edge.value)
        if c.decode_failures:
            decode_failures.inc(c.decode_failures, substrate=substrate, edge=edge.value)
    _publish_transport_dicts(
        registry,
        substrate=substrate,
        fields={
            "sies_transport_attempts_total": {e: c.attempts for e, c in by_edge},
            "sies_transport_retransmissions_total": {e: c.retransmissions for e, c in by_edge},
            "sies_transport_delivered_total": {e: c.delivered for e, c in by_edge},
            "sies_transport_duplicates_total": {e: c.duplicates_suppressed for e, c in by_edge},
            "sies_transport_late_total": {e: c.late_frames for e, c in by_edge},
            "sies_transport_gave_up_total": {e: c.gave_up for e, c in by_edge},
            "sies_transport_acks_sent_total": {e: c.acks_sent for e, c in by_edge},
            "sies_transport_acks_lost_total": {e: c.acks_dropped for e, c in by_edge},
        },
    )
    _publish_ledger_outcomes(metrics, registry, substrate=substrate)
