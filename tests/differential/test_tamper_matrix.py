"""Tamper matrix: adversary × execution path × failure mode.

Every channel adversary from :mod:`repro.attacks.adversary` is mounted
against both of the simulator's epoch loops — ``run()`` and a
``run_epoch()`` loop — under both the all-report regime and a
failed-subset regime (static plus dynamic reported failures).  The
contract has two layers:

* **no verdict divergence** — for every cell of the matrix, an epoch
  raises :class:`~repro.errors.VerificationFailure` in both paths or in
  neither (checked cell-by-cell via the differential harness);
* **detection** — for the actively tampering adversaries, every epoch
  whose final record the attack actually touched is rejected (what
  Theorems 2/4 promise), and no clean epoch is ever rejected in either
  path (no false positives).
"""

from __future__ import annotations

import zlib

import pytest

from repro.attacks.adversary import (
    AdditiveTamperAttack,
    BitFlipAttack,
    DropAttack,
    Eavesdropper,
    ReplayAttack,
)
from repro.network.channel import EdgeClass

from tests.differential.harness import (
    PATHS,
    RunSpec,
    assert_equivalent,
    execute_path,
    run_both_paths,
)

pytestmark = pytest.mark.differential

NUM_SOURCES = 12
NUM_EPOCHS = 6

# name -> (factory, always_detected_when_applied)
SCENARIOS = {
    "additive-aq": (lambda protocol: AdditiveTamperAttack(1 << 33, protocol.p), True),
    "additive-sa": (
        lambda protocol: AdditiveTamperAttack(
            (1 << 21) + 5, protocol.p, edge_class=EdgeClass.SOURCE_TO_AGGREGATOR
        ),
        True,
    ),
    "bitflip-aq": (lambda protocol: BitFlipAttack(protocol.p), True),
    "replay": (lambda protocol: ReplayAttack(capture_epoch=2), True),
    # Dropping a source that the querier still believes reported is an
    # incomplete aggregate — rejected by the share check.
    "drop-source": (lambda protocol: DropAttack(sender_ids=frozenset({4})), True),
    # A passive eavesdropper must never trip verification.
    "eavesdrop": (lambda protocol: Eavesdropper(), False),
}

FAILURE_MODES = {
    "all-report": dict(static_failures=frozenset(), dynamic_failures={}),
    "failed-subset": dict(
        static_failures=frozenset({1}),
        dynamic_failures={7: (2, 4), 9: (3,)},
    ),
}


def _spec(scenario: str, failure_mode: str) -> RunSpec:
    factory, _ = SCENARIOS[scenario]
    return RunSpec(
        num_sources=NUM_SOURCES,
        fanout=3,
        num_epochs=NUM_EPOCHS,
        key_seed=zlib.crc32(f"{scenario}/{failure_mode}".encode()) % 100_000,
        workload_seed=42,
        attack_factory=factory,
        **FAILURE_MODES[failure_mode],
    )


@pytest.mark.parametrize("failure_mode", sorted(FAILURE_MODES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_no_verdict_divergence(scenario: str, failure_mode: str) -> None:
    """run() and run_epoch() must agree epoch-by-epoch, bit-by-bit."""
    whole, per_epoch = run_both_paths(_spec(scenario, failure_mode))
    assert_equivalent(whole, per_epoch, context=f"{scenario}/{failure_mode}")


@pytest.mark.parametrize("failure_mode", sorted(FAILURE_MODES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("path", PATHS, ids=["sequential", "run_epoch"])
def test_detection_contract(scenario: str, failure_mode: str, path: str) -> None:
    """Tampered epochs are rejected; untouched epochs are accepted."""
    factory, always_detected = SCENARIOS[scenario]
    spec = _spec(scenario, failure_mode)

    # Rebuild with an attack instance we keep a handle on, to know
    # exactly which epochs it touched.
    captured: dict[str, object] = {}

    def capturing_factory(protocol):
        captured["attack"] = factory(protocol)
        return captured["attack"]

    spec.attack_factory = capturing_factory
    trace = execute_path(spec, path=path)
    attack = captured["attack"]
    attacked_epochs = set(getattr(attack, "applications", []))

    for epoch, failure in trace.verdicts:
        if epoch in attacked_epochs and always_detected:
            assert failure == "VerificationFailure", (
                f"{scenario}/{failure_mode}: attacked epoch {epoch} accepted ({path} path)"
            )
        if epoch not in attacked_epochs:
            assert failure is None, (
                f"{scenario}/{failure_mode}: clean epoch {epoch} rejected with {failure} "
                f"({path} path) — false positive"
            )


def test_matrix_includes_genuinely_attacked_epochs() -> None:
    """The matrix is not vacuous: tampering scenarios really fire."""
    for scenario, (factory, always_detected) in SCENARIOS.items():
        if not always_detected:
            continue
        spec = _spec(scenario, "all-report")
        sequential = execute_path(spec, path="run")
        rejected = [e for e, failure in sequential.verdicts if failure is not None]
        assert rejected, f"{scenario} never produced a rejected epoch"
