"""Bit-for-bit pins of the event runtime across a fixed scenario matrix.

Every entry runs one seeded :class:`RuntimeSimulator` and reduces it to
two SHA-256 digests: one of the canonical run ledger
(``json.dumps(metrics.ledger(), sort_keys=True)``) and one of the
``(kind, attrs)`` observer stream installed through ``set_observer``.
The recorded digests pin the runtime's exact behaviour — loss draws,
event order, deadline ties, late-copy classification, recovery verdicts
and op counts — so a refactor of its internals must leave both digests
unchanged.  A digest that moves means the runtime's observable
behaviour changed; re-pinning is a behaviour change, not a refactor.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.datasets.workload import UniformWorkload
from repro.network.channel import EdgeClass
from repro.network.topology import build_complete_tree
from repro.protocols.registry import create_protocol
from repro.runtime import (
    BurstLoss,
    FaultPlan,
    LinkProfile,
    NodeOutage,
    RuntimeConfig,
    RuntimeSimulator,
)

N = 16
FANOUT = 4
EPOCHS = 6
SEED = 1212

_TREE = build_complete_tree(N, fanout=FANOUT)


def _churn_plan() -> FaultPlan:
    aggregator = _TREE.parent(9)
    assert aggregator is not None
    return FaultPlan(
        default_profile=LinkProfile(loss_rate=0.1, latency=1.0, jitter=2.0),
        bursts=(
            BurstLoss(start=400.0, end=1300.0, loss_rate=0.7),
            # The final hop is blacked out under epochs 4 and 5: both are lost.
            BurstLoss(
                start=2000.0, end=2500.0, edge_class=EdgeClass.AGGREGATOR_TO_QUERIER
            ),
        ),
        outages=(
            NodeOutage(node_id=3, start=0.0, end=1100.0),
            NodeOutage(node_id=aggregator, start=900.0, end=2100.0),
        ),
    )


#: name -> (protocol name, RuntimeConfig keyword arguments).
MATRIX: dict[str, tuple[str, dict]] = {
    "lossless": ("sies", {"plan": FaultPlan.lossless()}),
    "loss20": ("sies", {"plan": FaultPlan.uniform_loss(0.2)}),
    "loss50_dup30": (
        "sies",
        {"plan": FaultPlan(default_profile=LinkProfile(loss_rate=0.5, duplicate_rate=0.3))},
    ),
    "burst_outages": ("sies", {"plan": _churn_plan()}),
    "failed_sources": (
        "sies",
        # Sources 0-3 are one aggregator's whole subtree.
        {"plan": FaultPlan.uniform_loss(0.1), "failed_sources": frozenset({0, 1, 2, 3, 9})},
    ),
    "keyed35": ("sies", {"plan": FaultPlan.uniform_loss(0.35)}),
    "cmt": ("cmt", {"plan": FaultPlan.uniform_loss(0.2)}),
    # Span = hold·(height+1) + slack = 140 > interval: every merge
    # deadline ties with a later epoch's start event, and retransmitted
    # copies miss their merge deadline (late arrivals).
    "pipelined_ties": (
        "sies",
        {
            "plan": FaultPlan.uniform_loss(0.3, latency=2.0, jitter=4.0),
            "epoch_interval": 40.0,
            "hold_time": 40.0,
            "querier_slack": 20.0,
        },
    ),
}

#: name -> (ledger digest, observer-stream digest).  ``lossless`` was
#: recorded before the runtime's epoch rules moved into
#: :mod:`repro.runtime.epochs`; the lossy entries were re-recorded once
#: when the one attempt-keyed fault oracle replaced the per-edge streams.
PINNED: dict[str, tuple[str, str]] = {
    "burst_outages": (
        "697f9cbfc060f683b9051ecafc1ae3a945ea40b8675ecc0bf0ece4613c1a353a",
        "d93f88067ed1eb3d083d588250d7931498efaaabe5fc903b11d7db68b35998dd",
    ),
    "cmt": (
        "348fa5c447a9b9f98fae97590210e6f140f24ea79d6ef606749abf9708d67ce7",
        "e776987dc0675249e2d90e7c678aa0c822c786d6f62a1c237ce65311f6a81f1c",
    ),
    "failed_sources": (
        "29f38d8b6a477c28499522092081864a452aa7d64f8d9405d3ca5cddab0f7adb",
        "303c6b2e4ad46b2fda5498998f55d884bb6fcdfcbb506243287cb74dd9b663f6",
    ),
    "keyed35": (
        "8727f6100b1c2afd180ef42a6e9e58214454b40aec643e479fec62ae6ee265fe",
        "e0e4bfe408459d0fba7c752334762953ab9bbf5f19bd5e76d78249276d62a17d",
    ),
    "loss20": (
        "6b0f7cc062b99081decfaf0e1b7e8116a38dc5996b0889c5e8a9de565a34e9cd",
        "e776987dc0675249e2d90e7c678aa0c822c786d6f62a1c237ce65311f6a81f1c",
    ),
    "loss50_dup30": (
        "c074c83ded62a5703ae5fc81e6646ea373f0e16b33570b3f36a1477d24932f3b",
        "9399b858c9c7f08c2d5cb64b62388c76f3395676d396ca86716a5aa4d2d92263",
    ),
    "lossless": (
        "e773293c0c19098137f2035835c06e10b0cdb037624da6484b36e9f63f3148ee",
        "659820e732f82d1e25d7cfded5cec7c54f50c3b695798b579fe4bb23ae717c39",
    ),
    "pipelined_ties": (
        "ad79e7a66b12e7e007101950755bf10a8f005774afa4dd32d39b0745742608a9",
        "3948d4729dc96d3aef2b0d60ffb406abfc3c4c3417ceae1411ab4c0717d0eafa",
    ),
}


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_entry(name: str) -> tuple[str, str]:
    protocol_name, config_kwargs = MATRIX[name]
    protocol = create_protocol(protocol_name, N, seed=SEED)
    workload = UniformWorkload(N, 0, 1000, seed=SEED)
    config = RuntimeConfig(num_epochs=EPOCHS, seed=SEED, **config_kwargs)
    sim = RuntimeSimulator(protocol, _TREE, workload, config)
    events: list[tuple[str, dict]] = []
    sim.set_observer(lambda kind, attrs: events.append((kind, dict(attrs))))
    metrics = sim.run()
    return _digest(metrics.ledger()), _digest(events)


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_runtime_ledger_and_trace_are_pinned(name: str) -> None:
    assert run_entry(name) == PINNED[name]


if __name__ == "__main__":
    for entry in sorted(MATRIX):
        print(f'    "{entry}": {run_entry(entry)!r},')
