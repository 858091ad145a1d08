"""``run()`` vs ``run_epoch()`` parity under packet loss.

Unreported drops are where the two epoch loops could silently diverge:
a subtree vanishing under ``run()`` must vanish identically epoch by
epoch, final-hop losses must classify as ``MessageLost`` on both, and
partial-subtree losses must produce the *same* ``VerificationFailure``
verdicts (the querier believes all sources reported, so a missing
contribution is detected tampering on either path).
:class:`~tests.differential.harness.LossyLink` makes the channel's fate
a pure function of ``(epoch, sender, edge)``, which keeps both paths on
the same loss realization.
"""

from __future__ import annotations

import pytest

from repro.network.channel import EdgeClass

from tests.differential.harness import (
    LossyLink,
    RunSpec,
    assert_equivalent,
    run_both_paths,
)

pytestmark = pytest.mark.differential


@pytest.mark.parametrize("loss_rate", [0.1, 0.3, 0.6])
@pytest.mark.parametrize(
    "edge_class",
    [None, EdgeClass.SOURCE_TO_AGGREGATOR, EdgeClass.AGGREGATOR_TO_QUERIER],
    ids=["all-edges", "S-A", "A-Q"],
)
def test_lossy_parity(loss_rate: float, edge_class: EdgeClass | None) -> None:
    spec = RunSpec(
        num_sources=12,
        fanout=3,
        num_epochs=10,
        attack_factory=lambda _p: LossyLink(
            loss_rate, seed=int(loss_rate * 100), edge_class=edge_class
        ),
    )
    whole, per_epoch = run_both_paths(spec)
    assert_equivalent(whole, per_epoch, context=f"loss={loss_rate} edge={edge_class}")


def test_final_hop_loss_is_message_lost_on_both_paths() -> None:
    spec = RunSpec(
        num_sources=9,
        fanout=3,
        num_epochs=8,
        attack_factory=lambda _p: LossyLink(
            0.5, seed=9, edge_class=EdgeClass.AGGREGATOR_TO_QUERIER
        ),
    )
    whole, per_epoch = run_both_paths(spec)
    assert_equivalent(whole, per_epoch, context="final-hop loss")
    failures = {failure for _, failure in whole.verdicts if failure}
    # With 50% A-Q loss over 8 epochs, some epochs must be lost — and
    # every lost epoch must carry the distinct MessageLost classification.
    assert failures == {"MessageLost"}


def test_source_loss_detected_identically() -> None:
    """Missing subtrees (querier told everyone reported) reject on both paths."""
    spec = RunSpec(
        num_sources=12,
        fanout=3,
        num_epochs=8,
        attack_factory=lambda _p: LossyLink(
            0.35, seed=3, edge_class=EdgeClass.SOURCE_TO_AGGREGATOR
        ),
    )
    whole, per_epoch = run_both_paths(spec)
    assert_equivalent(whole, per_epoch, context="source loss")
    failures = {failure for _, failure in whole.verdicts if failure}
    assert "VerificationFailure" in failures


def test_loss_with_dynamic_failures_parity() -> None:
    """Reported failures and unreported loss interact identically."""
    spec = RunSpec(
        num_sources=12,
        fanout=3,
        num_epochs=8,
        static_failures=frozenset({2}),
        dynamic_failures={5: (2, 3), 7: (4,)},
        attack_factory=lambda _p: LossyLink(0.2, seed=17),
    )
    whole, per_epoch = run_both_paths(spec)
    assert_equivalent(whole, per_epoch, context="loss+failures")
