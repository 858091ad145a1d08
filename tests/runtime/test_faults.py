"""Fault model: keyed determinism, burst windows, churn, rate validation."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.network.channel import EdgeClass
from repro.runtime.faults import (
    ACK,
    DATA,
    BurstLoss,
    FaultInjector,
    FaultPlan,
    LinkProfile,
    NodeOutage,
)

EDGE = EdgeClass.SOURCE_TO_AGGREGATOR


def data(injector: FaultInjector, sender: int, receiver: int, uid: int, now: float,
         *, attempt: int = 0, edge: EdgeClass = EDGE):
    """The data verdict of one attempt coordinate at logical time *now*."""
    return injector.attempt(DATA, sender, receiver, edge, uid, attempt, now)


def test_profile_validation() -> None:
    with pytest.raises(ParameterError):
        LinkProfile(loss_rate=1.5)
    with pytest.raises(ParameterError):
        LinkProfile(duplicate_rate=-0.1)
    with pytest.raises(ParameterError):
        LinkProfile(latency=-1.0)
    with pytest.raises(ParameterError):
        BurstLoss(start=5.0, end=5.0)
    with pytest.raises(ParameterError):
        NodeOutage(node_id=1, start=3.0, end=2.0)


def test_seeded_verdicts_are_deterministic() -> None:
    plan = FaultPlan.uniform_loss(0.4, latency=2.0, jitter=1.0)

    def verdicts(seed: int):
        injector = FaultInjector(plan, seed=seed)
        return [
            (v.lost, v.latencies, v.backoff)
            for v in (data(injector, 0, 1, uid, float(uid)) for uid in range(50))
        ]

    assert verdicts(7) == verdicts(7)
    assert verdicts(7) != verdicts(8)


def test_edges_draw_from_independent_streams() -> None:
    plan = FaultPlan.uniform_loss(0.5)
    injector = FaultInjector(plan, seed=3)
    a = [data(injector, 0, 1, uid, 0.0).lost for uid in range(40)]
    b = [data(injector, 2, 1, uid, 0.0).lost for uid in range(40)]
    assert a != b  # distinct (sender, receiver) pairs see distinct loss realizations
    # ...as do distinct attempts of one parcel, and the two directions.
    retries = [data(injector, 0, 1, uid, 0.0, attempt=1).lost for uid in range(40)]
    acks = [injector.attempt(ACK, 0, 1, EDGE, uid, 0, 0.0).lost for uid in range(40)]
    assert a != retries and a != acks


def test_lossless_plan_never_drops() -> None:
    injector = FaultInjector(FaultPlan.lossless(), seed=1)
    for t in range(100):
        verdict = data(injector, 0, 1, t, float(t), edge=EdgeClass.AGGREGATOR_TO_QUERIER)
        assert not verdict.lost
        assert verdict.latencies == (0.0,)


def test_burst_loss_window() -> None:
    plan = FaultPlan(bursts=(BurstLoss(start=10.0, end=20.0, loss_rate=1.0),))
    injector = FaultInjector(plan, seed=0)
    assert injector.effective_loss_rate(EdgeClass.SOURCE_TO_AGGREGATOR, 5.0) == 0.0
    assert injector.effective_loss_rate(EdgeClass.SOURCE_TO_AGGREGATOR, 10.0) == 1.0
    assert injector.effective_loss_rate(EdgeClass.SOURCE_TO_AGGREGATOR, 19.9) == 1.0
    assert injector.effective_loss_rate(EdgeClass.SOURCE_TO_AGGREGATOR, 20.0) == 0.0
    assert data(injector, 0, 1, 1, 15.0).lost
    # The burst takes the ACK direction down too, at the ACK's own time.
    assert injector.attempt(ACK, 0, 1, EDGE, 1, 0, 15.0).lost
    assert not injector.attempt(ACK, 0, 1, EDGE, 1, 0, 25.0).lost


def test_burst_scoped_to_edge_class() -> None:
    plan = FaultPlan(
        bursts=(
            BurstLoss(
                start=0.0, end=100.0, loss_rate=1.0,
                edge_class=EdgeClass.AGGREGATOR_TO_QUERIER,
            ),
        )
    )
    injector = FaultInjector(plan, seed=0)
    assert injector.effective_loss_rate(EdgeClass.AGGREGATOR_TO_QUERIER, 50.0) == 1.0
    assert injector.effective_loss_rate(EdgeClass.SOURCE_TO_AGGREGATOR, 50.0) == 0.0
    assert data(injector, 0, 1, 1, 50.0, edge=EdgeClass.AGGREGATOR_TO_QUERIER).lost
    assert not data(injector, 0, 1, 1, 50.0).lost


def test_loss_rates_compose_independently() -> None:
    plan = FaultPlan(
        default_profile=LinkProfile(loss_rate=0.5),
        bursts=(BurstLoss(start=0.0, end=10.0, loss_rate=0.5),),
    )
    injector = FaultInjector(plan, seed=0)
    assert injector.effective_loss_rate(EdgeClass.SOURCE_TO_AGGREGATOR, 5.0) == pytest.approx(0.75)
    inside = sum(data(injector, 0, 1, uid, 5.0).lost for uid in range(4000)) / 4000
    outside = sum(data(injector, 0, 1, uid, 50.0).lost for uid in range(4000)) / 4000
    assert 0.72 < inside < 0.78
    assert 0.47 < outside < 0.53


def test_node_outage_and_recovery() -> None:
    plan = FaultPlan(outages=(NodeOutage(node_id=4, start=10.0, end=30.0),))
    injector = FaultInjector(plan, seed=0)
    assert not injector.node_down(4, 9.9)
    assert injector.node_down(4, 10.0)
    assert injector.node_down(4, 29.9)
    assert not injector.node_down(4, 30.0)
    assert not injector.node_down(5, 15.0)
    # Transmissions *to* a downed node are lost regardless of link luck...
    assert data(injector, 0, 4, 1, 15.0).lost
    assert not data(injector, 0, 4, 1, 30.0).lost
    # ...and so are ACKs travelling back to a downed data sender.
    assert injector.attempt(ACK, 4, 0, EDGE, 1, 0, 15.0).lost
    assert not injector.attempt(ACK, 4, 0, EDGE, 1, 0, 30.0).lost


def test_duplication_yields_extra_copies() -> None:
    plan = FaultPlan(default_profile=LinkProfile(duplicate_rate=1.0, jitter=0.0))
    injector = FaultInjector(plan, seed=0)
    verdict = data(injector, 0, 1, 1, 0.0)
    assert verdict.copies == 2
    assert verdict.latencies == (1.0, 1.0)
    # ACKs are never duplicated: the sender only needs the first.
    assert injector.attempt(ACK, 0, 1, EDGE, 1, 0, 0.0).copies == 1


def test_verdict_outcomes_do_not_shift_the_stream() -> None:
    """A burst changing outcomes must not perturb verdicts outside its window."""
    quiet = FaultInjector(FaultPlan.uniform_loss(0.3, jitter=1.0), seed=5)
    bursty = FaultInjector(
        FaultPlan(
            default_profile=LinkProfile(loss_rate=0.3, jitter=1.0),
            bursts=(BurstLoss(start=0.0, end=5.0, loss_rate=1.0),),
        ),
        seed=5,
    )

    def judged(injector: FaultInjector):
        # Interleave inside-window attempts with the ones compared.
        return [
            (v.lost, v.copies, v.latencies, v.backoff)
            for v in (data(injector, 0, 1, t, float(t), attempt=t % 3) for t in range(20))
        ]

    quiet_verdicts, bursty_verdicts = judged(quiet), judged(bursty)
    assert all(lost for lost, *_ in bursty_verdicts[:5])
    # Outside the burst window the two runs see identical verdicts.
    assert quiet_verdicts[5:] == bursty_verdicts[5:]


class TestKeyedFaultInjector:
    """The one oracle, seen from the TCP cluster."""

    def test_matches_the_cluster_injector_draw_for_draw(self) -> None:
        from repro.cluster.faults import StreamFaultInjector

        plan = FaultPlan.uniform_loss(0.3, duplicate_rate=0.1)
        runtime = FaultInjector(plan, seed=11)
        stream = StreamFaultInjector(plan, seed=11)
        edge = EdgeClass.SOURCE_TO_AGGREGATOR
        for uid in (1, 2, 900):
            for attempt in range(3):
                verdict = runtime.attempt(DATA, 0, 1, edge, uid, attempt, 123.0)
                cluster = stream.data_verdict(0, 1, edge, uid, attempt)
                assert verdict == cluster
                assert verdict.backoff == cluster.backoff
                ack = runtime.attempt(ACK, 0, 1, edge, uid, attempt, 123.0)
                assert ack.lost == stream.ack_verdict(0, 1, edge, uid, attempt)

    def test_latency_draws_are_keyed_and_profile_bounded(self) -> None:
        plan = FaultPlan.uniform_loss(0.0, latency=2.0, jitter=0.5, duplicate_rate=1.0)
        injector = FaultInjector(plan, seed=3)
        edge = EdgeClass.SOURCE_TO_AGGREGATOR
        first = injector.attempt(DATA, 0, 1, edge, 7, 0, 0.0)
        again = injector.attempt(DATA, 0, 1, edge, 7, 0, 99.0)
        assert first.latencies == again.latencies  # pure function of the coordinate
        assert len(first.latencies) == 2
        assert all(2.0 <= lat <= 2.5 for lat in first.latencies)
        ack = injector.attempt(ACK, 0, 1, edge, 7, 0, 0.0)
        assert len(ack.latencies) == 1 and 2.0 <= ack.latencies[0] <= 2.5
        assert 0.0 <= first.backoff < 1.0

    def test_rejects_time_windowed_features(self) -> None:
        from repro.cluster.faults import StreamFaultInjector
        from repro.errors import ConfigurationError

        bursty = FaultPlan(bursts=(BurstLoss(start=0.0, end=5.0),))
        churned = FaultPlan(outages=(NodeOutage(node_id=3, start=0.0),))
        with pytest.raises(ConfigurationError):
            StreamFaultInjector(bursty)
        with pytest.raises(ConfigurationError):
            StreamFaultInjector(churned)
        # The runtime has a logical clock, so the same plans are fine there.
        assert FaultInjector(bursty).plan is bursty
        assert FaultInjector(churned).node_down(3, 1.0)
