"""Adapters and profiling: substrate hooks into the unified schema."""

from __future__ import annotations

from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.obs import (
    ChannelTraceAdapter,
    MetricsRegistry,
    PhaseProfiler,
    ProfiledCodec,
    TraceRecorder,
    TransportTraceAdapter,
    publish_network_metrics,
    publish_runtime_metrics,
)
from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator

N = 16


def _network_simulator(epochs: int = 2) -> NetworkSimulator:
    protocol = SIESProtocol(N, seed=3)
    tree = build_complete_tree(N, 4)
    workload = UniformWorkload(N, 1, 50, seed=4)
    return NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=epochs))


def _runtime_simulator(*, loss: float, seed: int = 11, epochs: int = 3) -> RuntimeSimulator:
    protocol = SIESProtocol(N, seed=seed)
    tree = build_complete_tree(N, 4)
    workload = UniformWorkload(N, 1, 50, seed=seed)
    config = RuntimeConfig(num_epochs=epochs, plan=FaultPlan.uniform_loss(loss), seed=seed)
    return RuntimeSimulator(protocol, tree, workload, config)


# ----------------------------------------------------------------------
# ChannelTraceAdapter (analytic substrate)
# ----------------------------------------------------------------------


def test_channel_adapter_records_every_hop_as_send() -> None:
    simulator = _network_simulator(epochs=2)
    recorder = TraceRecorder(substrate="network")
    adapter = ChannelTraceAdapter(recorder)
    adapter.attach(simulator.channel)
    metrics = simulator.run()
    hops = sum(metrics.traffic.messages_by_class.values())
    assert len(recorder.events) == hops
    assert {e.kind for e in recorder.events} == {"send"}
    assert all(e.wire_bytes and e.psr_type == "SIESRecord" for e in recorder.events)
    # analytic hops are deliveries: nothing is ever "dropped"
    for per_epoch in recorder.dispositions().values():
        assert per_epoch["dropped"] == []
        assert len(per_epoch["delivered"]) > 0


def test_channel_adapter_attach_is_idempotent() -> None:
    simulator = _network_simulator(epochs=1)
    recorder = TraceRecorder(substrate="network")
    adapter = ChannelTraceAdapter(recorder)
    adapter.attach(simulator.channel)
    adapter.attach(simulator.channel)  # no-op, not a second interceptor
    metrics = simulator.run()
    assert len(recorder.events) == sum(metrics.traffic.messages_by_class.values())


def test_channel_adapter_detach_stops_recording() -> None:
    simulator = _network_simulator(epochs=1)
    recorder = TraceRecorder(substrate="network")
    adapter = ChannelTraceAdapter(recorder)
    adapter.attach(simulator.channel)
    adapter.detach()
    adapter.detach()  # idempotent
    simulator.run()
    assert recorder.events == []


def test_channel_adapter_resets_recorder_per_run() -> None:
    first = _network_simulator(epochs=1)
    recorder = TraceRecorder(substrate="network")
    adapter = ChannelTraceAdapter(recorder)
    adapter.attach(first.channel)
    first.run()
    count = len(recorder.events)
    adapter.detach()
    second = _network_simulator(epochs=1)
    adapter.attach(second.channel)
    second.run()
    # begin_run cleared the recorder: same deterministic run, not doubled.
    assert len(recorder.events) == count
    assert recorder.events[0].sequence == 0


# ----------------------------------------------------------------------
# TransportTraceAdapter (runtime substrate)
# ----------------------------------------------------------------------


def test_transport_adapter_traces_runtime_arq() -> None:
    simulator = _runtime_simulator(loss=0.3)
    recorder = TraceRecorder(substrate="runtime")
    simulator.set_observer(TransportTraceAdapter(recorder))
    metrics = simulator.run()
    kinds = {e.kind for e in recorder.events}
    assert "attempt" in kinds and "deliver" in kinds and "drop" in kinds
    attempts = [e for e in recorder.events if e.kind == "attempt"]
    assert len(attempts) == sum(metrics.transport.attempts.values())
    delivers = [e for e in recorder.events if e.kind == "deliver"]
    assert len(delivers) == sum(metrics.transport.delivered.values())
    assert all(e.uid is not None for e in attempts)
    assert all(e.attempt is not None and e.time is not None for e in attempts)
    drops = [e for e in recorder.events if e.kind == "drop"]
    assert all(e.detail == "link" for e in drops)


def test_transport_adapter_observer_is_optional() -> None:
    """No observer, no trace — and byte-identical metrics either way."""
    traced = _runtime_simulator(loss=0.3)
    recorder = TraceRecorder(substrate="runtime")
    traced.set_observer(TransportTraceAdapter(recorder))
    plain = _runtime_simulator(loss=0.3)
    assert traced.run().ledger() == plain.run().ledger()
    assert recorder.events


# ----------------------------------------------------------------------
# PhaseProfiler / ProfiledCodec
# ----------------------------------------------------------------------


def test_phase_profiler_accumulates_with_injected_clock() -> None:
    ticks = iter(range(100))
    profiler = PhaseProfiler(clock=lambda: float(next(ticks)))
    with profiler.phase("encrypt"):
        pass  # 0 -> 1
    with profiler.phase("encrypt"):
        pass  # 2 -> 3
    with profiler.phase("evaluate"):
        pass  # 4 -> 5
    snap = profiler.snapshot()
    assert snap["encrypt"] == {"calls": 2, "seconds": 2.0}
    assert snap["evaluate"] == {"calls": 1, "seconds": 1.0}


def test_phase_profiler_wrap_and_publish() -> None:
    ticks = iter(range(100))
    profiler = PhaseProfiler(clock=lambda: float(next(ticks)))
    double = profiler.wrap("combine", lambda x: 2 * x)
    assert double(21) == 42
    registry = MetricsRegistry()
    profiler.publish(registry, substrate="runtime")
    calls = registry.get("sies_phase_calls_total")
    assert calls is not None and calls.value(substrate="runtime", phase="combine") == 1


def test_profiled_codec_times_encode_and_decode() -> None:
    protocol = SIESProtocol(4, seed=5)
    codec = protocol.wire_codec()
    assert codec is not None
    ticks = iter(range(100))
    profiler = PhaseProfiler(clock=lambda: float(next(ticks)))
    profiled = ProfiledCodec(codec, profiler)
    psr = protocol.create_source(0).initialize(1, 17)
    frame = profiled.encode(psr)
    assert frame == codec.encode(psr)
    assert profiled.decode(frame) == codec.decode(frame)
    assert profiled.framed_size(psr) == codec.framed_size(psr)  # delegated, untimed
    snap = profiler.snapshot()
    assert snap["encode"]["calls"] == 1 and snap["decode"]["calls"] == 1
    assert "framed_size" not in snap


def test_publish_network_and_runtime_share_metric_names() -> None:
    registry = MetricsRegistry()
    net = _network_simulator(epochs=1)
    publish_network_metrics(net.run(), registry)
    rt = _runtime_simulator(loss=0.2, epochs=2)
    publish_runtime_metrics(rt.run(), registry)
    epochs_total = registry.get("sies_epochs_total")
    assert epochs_total is not None
    assert epochs_total.value(substrate="network") == 1
    assert epochs_total.value(substrate="runtime") == 2
    text = registry.render_prometheus()
    assert 'sies_traffic_bytes_total{substrate="network",edge="S-A"}' in text
    assert 'sies_traffic_bytes_total{substrate="runtime",edge="S-A"}' in text
