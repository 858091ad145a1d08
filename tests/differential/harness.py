"""Differential harness: the simulator's two epoch loops must agree.

``NetworkSimulator.run`` executes a whole run against one traffic
ledger; ``NetworkSimulator.run_epoch`` executes one epoch as a run of
its own (the entry point the benchmark drives).  Replaying an
*identical* workload — same keys, same topology, same failures, same
adversary — through ``run()`` and through a ``run_epoch()`` loop must
give

* **ciphertexts** — every PSR observed on the channel (post-adversary)
  is bit-identical, keyed by ``(epoch, sender)``;
* **results** — per-epoch decrypted SUMs match (or are absent in both);
* **verdicts** — per-epoch accept/reject outcomes and security-failure
  class names match (no detection divergence, no false-positive skew);
* **op counts** — the source/aggregator/querier primitive-operation
  ledgers are equal, so neither loop does different (or skipped)
  crypto;
* **traffic** — per-edge byte/message counters match (the
  ``run_epoch`` path sums its per-epoch ledgers).

Both paths get fresh protocol/simulator/adversary instances built from
the same :class:`RunSpec` (seeded key generation makes them
key-identical), because interceptors and channels are stateful.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.attacks.adversary import Eavesdropper
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.channel import EdgeClass, Interceptor
from repro.network.messages import DataMessage
from repro.network.metrics import RunMetrics
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.protocols.base import SecureAggregationProtocol
from repro.utils.rng import derive_seed

__all__ = [
    "PATHS",
    "RunSpec",
    "PathTrace",
    "LossyLink",
    "execute_path",
    "run_both_paths",
    "assert_equivalent",
]


class LossyLink:
    """A stateless lossy link usable identically on both execution paths.

    Each drop is decided purely from a seeded hash of
    ``(epoch, sender, edge)``, so the same message meets the same fate
    on either path and whatever order the hops are delivered in —
    exactly what a differential scenario needs (and what a real fading
    channel looks like to a replayed trace).
    """

    def __init__(
        self,
        loss_rate: float,
        *,
        seed: int = 0,
        edge_class: EdgeClass | None = None,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        self.loss_rate = loss_rate
        self.seed = seed
        self.edge_class = edge_class
        #: ``(epoch, sender)`` pairs this link actually swallowed.
        self.dropped: list[tuple[int, int]] = []

    def would_drop(self, epoch: int, sender: int, edge: EdgeClass) -> bool:
        draw = derive_seed(self.seed, "lossy", f"{epoch}", f"{sender}", edge.value)
        return draw / 2**64 < self.loss_rate

    def __call__(self, message: DataMessage, edge: EdgeClass) -> DataMessage | None:
        if self.edge_class is not None and edge is not self.edge_class:
            return message
        if self.would_drop(message.epoch, message.sender, edge):
            self.dropped.append((message.epoch, message.sender))
            return None
        return message

#: Builds a fresh adversary for a freshly-built protocol instance.
AttackFactory = Callable[[SecureAggregationProtocol], Interceptor]


@dataclass
class RunSpec:
    """A complete, reproducible scenario both execution paths replay."""

    num_sources: int
    fanout: int = 3
    num_epochs: int = 8
    key_seed: int = 7
    workload_seed: int = 11
    value_range: tuple[int, int] = (0, 900)
    #: Sources failed for the whole run (reported to the querier).
    static_failures: frozenset[int] = field(default_factory=frozenset)
    #: ``source_id -> epochs`` dynamic (per-epoch) reported failures.
    dynamic_failures: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    attack_factory: AttackFactory | None = None
    protocol_factory: Callable[["RunSpec"], SecureAggregationProtocol] | None = None

    def build_protocol(self) -> SecureAggregationProtocol:
        if self.protocol_factory is not None:
            return self.protocol_factory(self)
        return SIESProtocol(self.num_sources, seed=self.key_seed)


@dataclass
class PathTrace:
    """Everything one execution path produced that the contract compares."""

    metrics: RunMetrics
    #: ``(epoch, sender) -> ciphertext`` for every channel-observed PSR.
    ciphertexts: dict[tuple[int, int], int]

    @property
    def verdicts(self) -> list[tuple[int, str | None]]:
        return [(em.epoch, em.security_failure) for em in self.metrics.epochs]

    @property
    def sums(self) -> list[int | None]:
        return [em.result.value if em.result is not None else None for em in self.metrics.epochs]


#: The two execution paths: ``run()`` and a loop of ``run_epoch()``.
PATHS = ("run", "run_epoch")


def _run_epoch_by_epoch(simulator: NetworkSimulator, num_epochs: int) -> RunMetrics:
    """Drive every epoch through ``run_epoch`` and sum the per-epoch ledgers."""
    metrics = RunMetrics(protocol=simulator.protocol.name, num_sources=simulator.tree.num_sources)
    total = metrics.traffic
    for offset in range(num_epochs):
        metrics.epochs.append(simulator.run_epoch(simulator.config.start_epoch + offset))
        epoch_traffic = simulator.channel.counters
        for ledger in ("bytes_by_class", "messages_by_class", "frame_bytes_by_class"):
            summed = getattr(total, ledger)
            for edge, count in getattr(epoch_traffic, ledger).items():
                summed[edge] = summed.get(edge, 0) + count
    metrics.source_ops = simulator.source_ops
    metrics.aggregator_ops = simulator.aggregator_ops
    metrics.querier_ops = simulator.querier_ops
    return metrics


def execute_path(spec: RunSpec, *, path: str) -> PathTrace:
    """Build the scenario from scratch and run one execution path."""
    protocol = spec.build_protocol()
    tree = build_complete_tree(spec.num_sources, spec.fanout)
    workload = UniformWorkload(
        spec.num_sources, spec.value_range[0], spec.value_range[1], seed=spec.workload_seed
    )
    simulator = NetworkSimulator(
        protocol,
        tree,
        workload,
        SimulationConfig(num_epochs=spec.num_epochs, failed_sources=spec.static_failures),
    )
    for source_id, epochs in spec.dynamic_failures.items():
        simulator.fail_source_at(source_id, epochs)
    if spec.attack_factory is not None:
        simulator.channel.add_interceptor(spec.attack_factory(protocol))
    # The spy sits *after* the adversary, so it records what the
    # receivers actually saw — attack effects included.
    spy = Eavesdropper()
    simulator.channel.add_interceptor(spy)

    if path == "run":
        metrics = simulator.run()
    else:
        metrics = _run_epoch_by_epoch(simulator, spec.num_epochs)

    ciphertexts = {
        (epoch, sender): psr.ciphertext
        for (epoch, sender, psr) in spy.observations
        if hasattr(psr, "ciphertext")
    }
    return PathTrace(metrics=metrics, ciphertexts=ciphertexts)


def run_both_paths(spec: RunSpec) -> tuple[PathTrace, PathTrace]:
    return execute_path(spec, path="run"), execute_path(spec, path="run_epoch")


def assert_equivalent(whole: PathTrace, per_epoch: PathTrace, *, context: str = "") -> None:
    """Assert the full differential contract between the two traces."""
    label = f" [{context}]" if context else ""

    assert per_epoch.ciphertexts == whole.ciphertexts, f"channel ciphertexts diverged{label}"

    run_epochs = whole.metrics.epochs
    epo_epochs = per_epoch.metrics.epochs
    assert [em.epoch for em in run_epochs] == [em.epoch for em in epo_epochs], (
        f"epoch schedule diverged{label}"
    )
    for run_em, epo_em in zip(run_epochs, epo_epochs):
        assert run_em.security_failure == epo_em.security_failure, (
            f"verdict diverged at epoch {run_em.epoch}{label}: "
            f"run={run_em.security_failure!r} run_epoch={epo_em.security_failure!r}"
        )
        run_value = run_em.result.value if run_em.result is not None else None
        epo_value = epo_em.result.value if epo_em.result is not None else None
        assert run_value == epo_value, (
            f"SUM diverged at epoch {run_em.epoch}{label}: {run_value} != {epo_value}"
        )
        assert run_em.sources_reporting == epo_em.sources_reporting, label
        assert run_em.aggregator_merges == epo_em.aggregator_merges, label

    for role in ("source_ops", "aggregator_ops", "querier_ops"):
        run_counts = getattr(whole.metrics, role).counts
        epo_counts = getattr(per_epoch.metrics, role).counts
        assert run_counts == epo_counts, (
            f"{role} diverged{label}: run={run_counts} run_epoch={epo_counts}"
        )

    for ledger in ("bytes_by_class", "messages_by_class", "frame_bytes_by_class"):
        assert getattr(per_epoch.metrics.traffic, ledger) == getattr(
            whole.metrics.traffic, ledger
        ), f"traffic {ledger} diverged{label}"
