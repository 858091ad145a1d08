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
    "keyed35": ("sies", {"plan": FaultPlan.uniform_loss(0.35), "keyed_faults": True}),
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

#: name -> (ledger digest, observer-stream digest), recorded before the
#: runtime's epoch rules moved into :mod:`repro.runtime.epochs`.
PINNED: dict[str, tuple[str, str]] = {
    "burst_outages": (
        "178d0705ffedcd4acdce3ff74d43b16d601928b7fdb2e58d280a21023717d55b",
        "c6aef7a912adb7a9cdd914e8af0fc5576215945110a582b4f11d21c9c07ee0f5",
    ),
    "cmt": (
        "e271bdb55aad4f2a0dcd21e94a8bfe268889f8b9138a58725ce4f18ba113d0f4",
        "a8310a962b6b7f910ece0d56642ea6b2d1d8c1f9bf1248f759ba063cb56e99de",
    ),
    "failed_sources": (
        "cc265f669ff7926b58dcfe4dcd832d16fd20f1a17326a759ca3b1a8a7daca4b7",
        "9037c99973f6d4dbdb01cbf692c03ab51729fe3419b2aec9681651207252460a",
    ),
    "keyed35": (
        "b2dcfd04f0b9d1ee44c338f934b212d723092fab3587f1150c6642db3df4d195",
        "f2f91d146a0200a2d4dcee9b6abb700acecdbcde8af6555dddc013f227419204",
    ),
    "loss20": (
        "8cf318454971d8171223d4cd5c56c3ac6395aa6b6e4b3c3a81efc99d3e9e86aa",
        "a8310a962b6b7f910ece0d56642ea6b2d1d8c1f9bf1248f759ba063cb56e99de",
    ),
    "loss50_dup30": (
        "48cef0e7822f911ef4107da5f7b2d876e7ab3c1f4d95bcfbf732ed6a111ea17b",
        "ae44908e10c891aa5c5c8bf8a431334e6d70768aabab6d19cf26ad593bc00082",
    ),
    "lossless": (
        "e773293c0c19098137f2035835c06e10b0cdb037624da6484b36e9f63f3148ee",
        "659820e732f82d1e25d7cfded5cec7c54f50c3b695798b579fe4bb23ae717c39",
    ),
    "pipelined_ties": (
        "a989983b18ae3331e29305a39b14e4e20370dfa664817a94afedf6069a463851",
        "9b90dd3c1038692691e14db7e435d2a1d0e288835d23257aeb55608b40e6b04a",
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
