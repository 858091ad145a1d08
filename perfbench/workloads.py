"""The three workloads: set-up, closed-loop measurement and answer checks.

Each ``measure_*`` function runs one *phase*: it sets the system up
(timed, several times), then drives epochs one after another — each
epoch (or pipelined chunk of epochs) is launched only once the previous
one returned, so every workload is a closed loop — until *seconds* have
passed and at least ``sizes.min_epochs`` epochs completed.  It checks
every epoch's answer and returns a :class:`Phase` with the raw figures
that :mod:`report` turns into metrics.  With a :class:`Tracer` the same
phase also records spans and per-layer counts.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from calibrate import HostSpeed
from instrument import EventLog, ProtocolFacade, RecordingWorkload, Tracer, time_injector
from repro.cluster import ClusterConfig, EpochOrchestrator, StreamFaultInjector, parcel_fate
from repro.datasets import DomainScaledWorkload
from repro.network.channel import EdgeClass
from repro.network.simulator import QUERIER_NODE_ID, NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.protocols.registry import create_protocol
from repro.runtime import FaultPlan, LinkProfile, RuntimeConfig, RuntimeSimulator

_now = time.perf_counter

FANOUT = 4
#: Readings of runtime-lossy and cluster-tcp: the paper's default domain.
READING_RANGE = (1800, 5000)
#: runtime-lossy: 20% uniform loss on every radio hop.  The root's hop to
#: the querier is lossless (a wired sink uplink): at 20% it loses all five
#: ARQ attempts, and with them the whole epoch, once in 0.2**-5 ≈ 3,000
#: epochs (seed 303 lost epoch 7 so), and no epoch of the workload may fail.
LOSSY_PLAN = FaultPlan(
    default_profile=LinkProfile(loss_rate=0.2),
    profiles={EdgeClass.AGGREGATOR_TO_QUERIER: LinkProfile(loss_rate=0.0)},
)
#: The synthesizer's AR(1) window is 32 epochs, so its cost per reading
#: rises through epoch 32; analytic-intel warms up from epoch 33 on.
WARMUP_FROM_EPOCH = 33
WARMUP_EPOCHS = 3
#: analytic-intel epochs per window (about 0.75 s); the chunked workloads
#: have one window per chunk.  Every window is followed by one set-up, so
#: the set-up samples (setup_s is their median) span the run.
ANALYTIC_WINDOW = 5


@dataclass(frozen=True)
class Sizes:
    """How big one phase is."""

    num_sources: int
    #: Epochs per one-shot runtime run or cluster run.
    chunk: int = ANALYTIC_WINDOW
    #: A run needs >= 100 epochs so that >= 10 latency samples lie beyond p90.
    min_epochs: int = 100
    #: When set, run exactly this many epochs and ignore the clock (self-test).
    fixed_epochs: int | None = None

    def done(self, elapsed: float, epochs: int, seconds: float) -> bool:
        if self.fixed_epochs is not None:
            return epochs >= self.fixed_epochs
        return elapsed >= seconds and epochs >= self.min_epochs

    def next_chunk(self, epochs: int) -> int:
        if self.fixed_epochs is None:
            return self.chunk
        return min(self.chunk, self.fixed_epochs - epochs)


FULL_SIZES = {
    "analytic-intel": Sizes(num_sources=256),
    "runtime-lossy": Sizes(num_sources=1024, chunk=10),
    "cluster-tcp": Sizes(num_sources=64, chunk=50),
}


@dataclass
class Window:
    """A stretch of consecutive measured epochs: one chunk, or 5 analytic epochs.

    Timing metrics are medians over windows of figures multiplied by
    each window's *scale* (see :mod:`calibrate`); the per-window figures
    go into the results record, where they show how the host's speed
    drifted during the run.  Set-up work and the reference kernel run
    between windows, never inside one.
    """

    epochs: int
    wall: float
    cpu: float
    #: Seconds per epoch of this window, where the workload has a latency.
    latencies: list[float]
    #: Reference-speed seconds per measured second in this window.
    scale: float = 1.0


@dataclass
class Phase:
    """Raw figures of one measured phase."""

    num_sources: int
    epochs: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    windows: list[Window] = field(default_factory=list)
    #: Set-up seconds, one per window, taken next to it (before it, or
    #: for analytic-intel right after the window before it).
    setups: list[float] = field(default_factory=list)
    wire_bytes: int = 0
    #: epoch -> why it failed: not accepted, or its answer diverged.
    failed: dict[int, str] = field(default_factory=dict)
    #: Epochs whose accepted SUM differs from the plain sum of survivors.
    wrong: list[int] = field(default_factory=list)
    checked: int = 0
    start_epoch: int = 1
    #: Operation counts charged during the measured loop, per role kind.
    ops: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Workload-specific counters (ARQ, events, ledgers).
    counts: Counter = field(default_factory=Counter)
    #: Anything the per-layer report needs beyond counts.
    extra: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    protocol: object = None

    @property
    def scale(self) -> float:
        """Median scale of the windows (reference-speed seconds per second)."""
        return statistics.median(window.scale for window in self.windows)


def _draw_readings(seed: int, num_sources: int, epochs: range) -> dict[int, list[int]]:
    low, high = READING_RANGE
    table = {}
    for epoch in epochs:
        rng = random.Random(f"perfbench:{seed}:{epoch}")
        table[epoch] = [rng.randint(low, high) for _ in range(num_sources)]
    return table


def _chunk_seed(seed: int, chunk: int) -> int:
    return seed * 10_007 + chunk


def _add_ops(phase: Phase, facade: ProtocolFacade) -> None:
    """Add what each role kind's OpCounter charged to the phase's totals."""
    for kind, ledger in facade.ledgers.items():
        phase.ops.setdefault(kind, Counter()).update(ledger.counts)


def _check_epoch(phase: Phase, epoch: int, result, failure, survivors, readings) -> None:
    """Compare the querier's SUM with the plain sum of the survivors' readings."""
    phase.checked += 1
    if failure is not None or result is None:
        phase.failed[epoch] = failure or "NoResult"
        return
    if not (result.verified and result.exact):
        phase.failed[epoch] = "unverified"
        return
    expected = sum(readings[sid] for sid in survivors)
    if result.value != expected:
        phase.wrong.append(epoch)
        phase.failed[epoch] = f"sum {result.value} != {expected}"


# ----------------------------------------------------------------------
# analytic-intel
# ----------------------------------------------------------------------


def _set_up_analytic(n: int, seed: int, tracer: Tracer | None):
    """Key generation, tree, synthesizer and simulator; returns (seconds, parts)."""
    start = _now()
    protocol = create_protocol("sies", n, seed=seed)
    facade = ProtocolFacade(protocol, tracer)
    workload = RecordingWorkload(
        DomainScaledWorkload(n, scale=100, seed=seed), tracer, "datasets"
    )
    sim = NetworkSimulator(facade, build_complete_tree(n, FANOUT), workload, SimulationConfig())
    return _now() - start, (protocol, facade, workload, sim)


def measure_analytic(sizes: Sizes, seed: int, seconds: float, tracer: Tracer | None) -> Phase:
    n = sizes.num_sources
    phase = Phase(num_sources=n)
    elapsed, (protocol, facade, workload, sim) = _set_up_analytic(n, seed, tracer)
    phase.setups.append(elapsed)
    phase.protocol = protocol

    for epoch in range(WARMUP_FROM_EPOCH, WARMUP_FROM_EPOCH + WARMUP_EPOCHS):
        sim.run_epoch(epoch)
    if tracer is not None:
        tracer.clear()
    for ledger in facade.ledgers.values():
        ledger.reset()
    phase.start_epoch = epoch = WARMUP_FROM_EPOCH + WARMUP_EPOCHS

    results = []
    latencies: list[float] = []
    speed = HostSpeed()
    cpu0 = time.process_time()
    loop_start = window_start = _now()
    while True:
        t0 = _now()
        em = sim.run_epoch(epoch)
        t1 = _now()
        latencies.append(t1 - t0)
        phase.wire_bytes += sim.channel.counters.total_frame_bytes()
        results.append(em)
        epoch += 1
        finished = sizes.done(t1 - loop_start, len(results), seconds)
        if len(latencies) == sizes.chunk or finished:
            cpu = time.process_time() - cpu0
            phase.windows.append(
                Window(len(latencies), t1 - window_start, cpu, latencies, speed.close_window())
            )
            if finished:
                break
            # One more (discarded) set-up between windows, outside them, so
            # set-up samples span the run as the epochs do.
            phase.setups.append(_set_up_analytic(n, seed, tracer)[0])
            latencies, window_start, cpu0 = [], _now(), time.process_time()
    phase.wall = sum(window.wall for window in phase.windows)
    phase.cpu = sum(window.cpu for window in phase.windows)
    phase.epochs = len(results)
    _add_ops(phase, facade)

    survivors = sim.tree.source_ids
    for em in results:
        _check_epoch(
            phase, em.epoch, em.result, em.security_failure, survivors, workload.values[em.epoch]
        )
    phase.tracer = tracer
    phase.extra["codec"] = facade.codec
    return phase


# ----------------------------------------------------------------------
# runtime-lossy
# ----------------------------------------------------------------------


def measure_runtime(sizes: Sizes, seed: int, seconds: float, tracer: Tracer | None) -> Phase:
    n = sizes.num_sources
    phase = Phase(num_sources=n)
    events = EventLog(tracer) if tracer is not None else None
    speed = HostSpeed()
    chunk = 0
    next_epoch = 1
    while not sizes.done(phase.wall, phase.epochs, seconds):
        epochs = range(next_epoch, next_epoch + sizes.next_chunk(phase.epochs))
        table = _draw_readings(seed, n, epochs)

        start = _now()
        protocol = create_protocol("sies", n, seed=seed)
        facade = ProtocolFacade(protocol, tracer)
        workload = RecordingWorkload(lambda sid, epoch: table[epoch][sid])
        sim = RuntimeSimulator(
            facade,
            build_complete_tree(n, FANOUT),
            workload,
            RuntimeConfig(
                num_epochs=len(epochs),
                start_epoch=epochs.start,
                plan=LOSSY_PLAN,
                seed=_chunk_seed(seed, chunk),
            ),
        )
        phase.setups.append(_now() - start)
        if tracer is not None:
            sim.set_observer(events)
            time_injector(sim.injector, tracer, "runtime", ("attempt",))

        cpu0 = time.process_time()
        t0 = _now()
        metrics = sim.run()
        wall = _now() - t0
        cpu = time.process_time() - cpu0
        phase.wall += wall
        phase.cpu += cpu
        _add_ops(phase, facade)

        phase.epochs += len(metrics.epochs)
        phase.wire_bytes += metrics.traffic.total_frame_bytes()
        stats = metrics.transport
        attempts = sum(stats.attempts.values())
        retransmissions = sum(stats.retransmissions.values())
        phase.counts.update(
            attempts=attempts,
            parcels=attempts - retransmissions,
            retransmissions=retransmissions,
            gave_up=sum(stats.gave_up.values()),
            events=metrics.events_processed,
            late_arrivals=sum(em.late_arrivals for em in metrics.epochs),
        )
        latencies = []
        for em in metrics.epochs:
            survivors = em.recovery.survivors
            _check_epoch(
                phase, em.epoch, em.result, em.security_failure, survivors, table[em.epoch]
            )
            if not survivors <= em.recovery.attempted:
                phase.failed.setdefault(em.epoch, "survivors outside the attempted set")
            if em.epoch in facade.verdicts:
                latencies.append(facade.verdicts[em.epoch][0] - workload.first_call[em.epoch][0])
        phase.windows.append(
            Window(len(metrics.epochs), wall, cpu, latencies, speed.close_window())
        )
        chunk += 1
        next_epoch = epochs.stop
    phase.protocol = protocol
    phase.tracer = tracer
    phase.extra["codec"] = facade.codec
    return phase


# ----------------------------------------------------------------------
# cluster-tcp
# ----------------------------------------------------------------------


async def _drive(orchestrator: EpochOrchestrator, lags: list[float] | None):
    """Run the orchestrator; beside it, a 1 ms sleeper measures loop lag."""
    if lags is None:
        return await orchestrator.run()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    async def sampler() -> None:
        while not stop.is_set():
            t0 = loop.time()
            await asyncio.sleep(0.001)
            lags.append(loop.time() - t0 - 0.001)

    task = asyncio.ensure_future(sampler())
    try:
        return await orchestrator.run()
    finally:
        stop.set()
        await task


def _oracle(tree, config: ClusterConfig, epochs) -> tuple[dict[int, frozenset[int]], int]:
    """Walk the keyed fault schedule: survivors per epoch, and ARQ attempts.

    A source survives an epoch iff every hop on its path to the querier
    delivers its parcel (``parcel_fate``); a node sends iff it is a
    source or a child delivered to it.  Attempts are the oracle's: what
    a sender makes when every ACK beats its timeout.
    """
    injector = StreamFaultInjector(config.plan, seed=config.seed)
    survivors = {}
    attempts = 0
    for epoch in epochs:
        fate = {}

        def hop(node: int) -> bool:
            nonlocal attempts
            if node not in fate:
                parent = tree.parent(node)
                if parent is None:
                    receiver, edge = QUERIER_NODE_ID, EdgeClass.AGGREGATOR_TO_QUERIER
                elif tree.node(node).is_source:
                    receiver, edge = parent, EdgeClass.SOURCE_TO_AGGREGATOR
                else:
                    receiver, edge = parent, EdgeClass.AGGREGATOR_TO_AGGREGATOR
                delivered, tries = parcel_fate(
                    injector, config.policy, node, receiver, edge, epoch
                )
                fate[node] = delivered
                attempts += tries
            return fate[node]

        alive = set()
        for sid in tree.source_ids:
            ok = hop(sid)
            node = tree.parent(sid)
            while ok and node is not None:
                ok = hop(node)
                node = tree.parent(node)
            if ok:
                alive.add(sid)
        survivors[epoch] = frozenset(alive)
    return survivors, attempts


def measure_cluster(sizes: Sizes, seed: int, seconds: float, tracer: Tracer | None) -> Phase:
    n = sizes.num_sources
    phase = Phase(num_sources=n)
    events = EventLog(tracer) if tracer is not None else None
    lags: list[float] | None = [] if tracer is not None else None
    speed = HostSpeed()
    chunk = 0
    next_epoch = 1
    while not sizes.done(phase.wall, phase.epochs, seconds):
        epochs = range(next_epoch, next_epoch + sizes.next_chunk(phase.epochs))
        table = _draw_readings(seed, n, epochs)

        start = _now()
        protocol = create_protocol("sies", n, seed=seed)
        facade = ProtocolFacade(protocol, tracer)
        workload = RecordingWorkload(lambda sid, epoch: table[epoch][sid])
        config = ClusterConfig(
            num_epochs=len(epochs),
            start_epoch=epochs.start,
            seed=_chunk_seed(seed, chunk),
            observer=events,
        )
        orchestrator = EpochOrchestrator(facade, build_complete_tree(n, FANOUT), workload, config)
        built = _now() - start
        if tracer is not None:
            time_injector(
                orchestrator.injector, tracer, "cluster", ("data_verdict", "ack_verdict")
            )

        t0 = _now()
        metrics = asyncio.run(_drive(orchestrator, lags))
        total = _now() - t0
        # Set-up is construction plus bind + connect (+ drain): the run's
        # time outside the orchestrator's own wall_seconds.
        phase.setups.append(built + total - metrics.wall_seconds)
        phase.wall += metrics.wall_seconds
        cpu_start = min(cpu for _, cpu in workload.first_call.values())
        cpu_end = max(cpu for _, cpu in facade.verdicts.values()) if facade.verdicts else cpu_start
        phase.cpu += cpu_end - cpu_start
        _add_ops(phase, facade)

        ledger = metrics.traffic
        ledger.check_conservation()
        phase.epochs += len(metrics.epochs)
        phase.wire_bytes += ledger.total("envelope_bytes") + ledger.total("ack_bytes")
        oracle, oracle_attempts = _oracle(orchestrator.tree, config, epochs)
        phase.counts.update(
            {
                name: ledger.total(name)
                for name in ("attempts", "retransmissions", "duplicates_suppressed",
                             "late_frames", "gave_up")
            },
            parcels=ledger.total("attempts") - ledger.total("retransmissions"),
            oracle_attempts=oracle_attempts,
        )
        latencies = []
        for result in metrics.epochs:
            survivors = result.recovery.survivors
            _check_epoch(
                phase,
                result.epoch,
                result.result,
                result.security_failure,
                survivors,
                table[result.epoch],
            )
            if survivors != oracle[result.epoch]:
                phase.failed.setdefault(
                    result.epoch,
                    f"{len(survivors)} survivors, oracle predicts {len(oracle[result.epoch])}",
                )
            if result.accepted:
                latencies.append(result.completion_latency)
        phase.windows.append(
            Window(
                len(metrics.epochs),
                metrics.wall_seconds,
                cpu_end - cpu_start,
                latencies,
                speed.close_window(),
            )
        )
        chunk += 1
        next_epoch = epochs.stop
    phase.protocol = protocol
    phase.tracer = tracer
    phase.extra.update(codec=facade.codec, events=events, lags=lags, tree=orchestrator.tree)
    return phase


MEASURE = {
    "analytic-intel": measure_analytic,
    "runtime-lossy": measure_runtime,
    "cluster-tcp": measure_cluster,
}
