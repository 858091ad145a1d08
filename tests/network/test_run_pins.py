"""Bit-for-bit pins of the analytic simulator's epoch loop.

Every entry runs one seeded :class:`NetworkSimulator` and reduces it to
four SHA-256 digests:

* the per-hop frames, recorded twice through channel interceptors: the
  bytes each sender puts on the radio (a frame interceptor attached
  before any adversary) and the re-encoded message each receiver gets
  (a PSR interceptor attached after every adversary, so drops and
  tampering show);
* the per-epoch results and verdicts (value, verified, exact, extras,
  security failure, reporting and merge counts);
* the ``OpCounter`` counts of the source, aggregator and querier roles;
* the traffic counters per edge class (analytic bytes, messages,
  measured frame bytes, decode failures) plus the energy ledger.

The recorded digests pin ``run()``/``run_epoch()`` exactly, so a
refactor of the simulator or the roles must leave all four unchanged.
A digest that moves means the observable behaviour changed.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable

import pytest

from repro.attacks import AdditiveTamperAttack, DropAttack
from repro.datasets.workload import UniformWorkload
from repro.network.channel import EdgeClass
from repro.network.energy import FirstOrderRadioModel
from repro.network.metrics import RunMetrics
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.protocols.registry import create_protocol

N = 16
FANOUT = 4
EPOCHS = 6
SEED = 1414

_TREE = build_complete_tree(N, fanout=FANOUT)


def _no_setup(sim: NetworkSimulator) -> None:
    return None


def _dynamic_failures(sim: NetworkSimulator) -> None:
    sim.fail_source_at(2, epochs=[2, 3])
    # Sources 4-7 are one aggregator's whole subtree: epoch 4 merges
    # without that aggregator.
    for sid in range(4, 8):
        sim.fail_source_at(sid, epochs=[4])
    sim.fail_source_at(11, epochs=[5, 6])


def _tamper_final_hop(sim: NetworkSimulator) -> None:
    tamper = AdditiveTamperAttack(
        12345, sim.protocol.params.p, edge_class=EdgeClass.AGGREGATOR_TO_QUERIER
    )
    sim.channel.add_interceptor(tamper)


def _drop_final_hop(sim: NetworkSimulator) -> None:
    drop = DropAttack(edge_class=EdgeClass.AGGREGATOR_TO_QUERIER)
    sim.channel.add_interceptor(lambda m, e: drop(m, e) if m.epoch in (2, 5) else m)


#: name -> (protocol, config kwargs, simulator set-up, drive by run_epoch).
MATRIX: dict[str, tuple[str, dict, Callable[[NetworkSimulator], None], bool]] = {
    "clean": ("sies", {}, _no_setup, False),
    "clean_run_epoch": ("sies", {}, _no_setup, True),
    "static_failures": (
        "sies",
        {
            # Sources 0-3 are one aggregator's whole subtree.
            "failed_sources": frozenset({0, 1, 2, 3, 9}),
            "energy_model": FirstOrderRadioModel(),
        },
        _no_setup,
        False,
    ),
    "dynamic_failures": ("sies", {}, _dynamic_failures, False),
    "tamper_a_q": ("sies", {}, _tamper_final_hop, False),
    "drop_final_hop": ("sies", {}, _drop_final_hop, False),
    "cmt": ("cmt", {}, _no_setup, False),
}

#: name -> (frames, epochs, ops, traffic) digests, recorded before the
#: batched pipeline was deleted.
PINNED: dict[str, tuple[str, str, str, str]] = {
    "clean": (
        "c027236d8b37869c284305f082ea57a0f1b7eaa9afc98339ed2cda555e3b5a79",
        "ba3ef9fcb16d813a6f180b249a370cdbe103e303769386beef6b4b387c74936b",
        "5ddf122db1dbdd4431e5ef8013feafe7b803c2436943f6222a5800ef6943e164",
        "c140beb078cdfd45f3606a39457d3b910d1345e2bb37ad257c9f383a18471948",
    ),
    "clean_run_epoch": (
        "c027236d8b37869c284305f082ea57a0f1b7eaa9afc98339ed2cda555e3b5a79",
        "ba3ef9fcb16d813a6f180b249a370cdbe103e303769386beef6b4b387c74936b",
        "5ddf122db1dbdd4431e5ef8013feafe7b803c2436943f6222a5800ef6943e164",
        "8407fff3afcbbcca325a42898693d5319264fae3201d29e6f76e53b4beaa2930",
    ),
    "cmt": (
        "011253869e54fd0e0fa82c4c697b011ee0a734bdc8b7f246c93194ea9b8baca6",
        "d1e9fe39b11282911c025100069df7e1973e786aa813557e7c1666bd5439b04f",
        "b9d8f34ce6175e3f6bcb07f01af32fcd9c389937c15e36de57e546903521d700",
        "83467e236e3e1144e6406ca3720718d09876425778b6b56253acebf3abecefe6",
    ),
    "drop_final_hop": (
        "37df50a8bb073bee7f6ad6ce7f3164e6d6881a257e1171bbf1e8573664ad57ba",
        "6fe51d3ea858531c0f2c7f865e15a6f3c9b63da42d829f5c144f9c7349a4b0ee",
        "5c701839cfe4fb33d8ab9e877bae158c0f8176815e15c35aa203b582f39f0b14",
        "c140beb078cdfd45f3606a39457d3b910d1345e2bb37ad257c9f383a18471948",
    ),
    "dynamic_failures": (
        "687ffa81d3fc55a776af3efc8f7f279d1de3c340216915ab4db2ef20617c94d1",
        "dbec06cd0dbb6f2c411c62944014a8bae1d29e8e068c6818db2eed8572f1e5e0",
        "2fb819ee399bda7258a79702106a8b24bc12d997c04014d8e9f87332506de88a",
        "eb51f2c5214560dc27af73576c96e1d674066bf421080625ce1dc3b739be44d0",
    ),
    "static_failures": (
        "cfe8d8344c0f9ca8623f85268103433fc1818deb289eef5a5e73913c6a0f3906",
        "f4706957bafad8e0603cb65576aca527405c89b43a5a5dc828ca756e554b2550",
        "a63932318f897f33202f1e25b7ee9db4d267f76242db83f96e6dded16ac69735",
        "cdf4ee9371698163384e7deaf3bb734cc159d4e734f70cb48b73ff9a9576019e",
    ),
    "tamper_a_q": (
        "afbbac42608493d1bbd6ba90b1002acd73ba1235bef08ea5ab430149f1595927",
        "6e6291514deef43e554675e125a23c25125ad86bc9b72d7aece6eb9fceb26617",
        "5ddf122db1dbdd4431e5ef8013feafe7b803c2436943f6222a5800ef6943e164",
        "c140beb078cdfd45f3606a39457d3b910d1345e2bb37ad257c9f383a18471948",
    ),
}


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _epoch_rows(metrics: RunMetrics) -> list[dict]:
    return [
        {
            "epoch": em.epoch,
            "value": em.result.value if em.result else None,
            "verified": em.result.verified if em.result else None,
            "exact": em.result.exact if em.result else None,
            "extras": em.result.extras if em.result else None,
            "security_failure": em.security_failure,
            "sources_reporting": em.sources_reporting,
            "aggregator_merges": em.aggregator_merges,
        }
        for em in metrics.epochs
    ]


def _traffic(metrics: RunMetrics) -> dict:
    traffic = metrics.traffic
    return {
        edge.value: [
            traffic.bytes_for(edge),
            traffic.messages_for(edge),
            traffic.frame_bytes_for(edge),
            traffic.decode_failures_for(edge),
        ]
        for edge in EdgeClass
    } | {"energy": {str(node): joules for node, joules in metrics.energy_by_node.items()}}


def run_entry(name: str) -> tuple[str, str, str, str]:
    protocol_name, config_kwargs, setup, per_epoch = MATRIX[name]
    protocol = create_protocol(protocol_name, N, seed=SEED)
    workload = UniformWorkload(N, 0, 1000, seed=SEED)
    config = SimulationConfig(num_epochs=EPOCHS, **config_kwargs)
    sim = NetworkSimulator(protocol, _TREE, workload, config)
    codec = sim.channel.codec
    assert codec is not None
    hops: list[list] = []

    def sent(frame: bytes, edge: EdgeClass) -> bytes:
        hops.append(["sent", edge.value, frame.hex()])
        return frame

    def received(message, edge: EdgeClass):
        frame = codec.encode(message.psr).hex()
        hops.append(["received", edge.value, message.sender, message.receiver, frame])
        return message

    sim.channel.add_frame_interceptor(sent)
    setup(sim)
    sim.channel.add_interceptor(received)

    if per_epoch:
        epochs = [sim.run_epoch(config.start_epoch + offset) for offset in range(EPOCHS)]
        metrics = RunMetrics(
            protocol=protocol.name,
            num_sources=N,
            epochs=epochs,
            traffic=sim.channel.counters,  # the last epoch's run only
            source_ops=sim.source_ops,
            aggregator_ops=sim.aggregator_ops,
            querier_ops=sim.querier_ops,
        )
    else:
        metrics = sim.run()
    ops = {
        "source": metrics.source_ops.counts,
        "aggregator": metrics.aggregator_ops.counts,
        "querier": metrics.querier_ops.counts,
    }
    return _digest(hops), _digest(_epoch_rows(metrics)), _digest(ops), _digest(_traffic(metrics))


def test_matrix_covers_every_verdict() -> None:
    """The matrix exercises acceptance, rejection and both lost kinds."""
    verdicts = set()
    for name in ("clean", "tamper_a_q", "drop_final_hop"):
        protocol_name, config_kwargs, setup, _ = MATRIX[name]
        protocol = create_protocol(protocol_name, N, seed=SEED)
        sim = NetworkSimulator(
            protocol,
            _TREE,
            UniformWorkload(N, 0, 1000, seed=SEED),
            SimulationConfig(num_epochs=EPOCHS, **config_kwargs),
        )
        setup(sim)
        verdicts |= {em.security_failure for em in sim.run().epochs}
    assert verdicts == {None, "VerificationFailure", "MessageLost"}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_run_is_pinned(name: str) -> None:
    assert run_entry(name) == PINNED[name]


if __name__ == "__main__":
    for entry in sorted(MATRIX):
        print(f'    "{entry}": {run_entry(entry)!r},')
