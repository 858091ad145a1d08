"""The event runtime delivers exactly what the keyed fault oracle predicts.

The runtime and the TCP cluster judge every attempt with the same
attempt-keyed :class:`~repro.runtime.faults.FaultInjector` (uid =
epoch), so the :func:`repro.cluster.faults.parcel_fate` tree walk the
cluster tests replay predicts the runtime's survivor sets too, once the
deadlines are generous enough that no delivered copy arrives late.
"""

from __future__ import annotations

import pytest

from repro.datasets.workload import UniformWorkload
from repro.network.topology import build_complete_tree
from repro.protocols.registry import create_protocol
from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator
from tests.cluster.test_end_to_end import oracle_survivors

pytestmark = pytest.mark.runtime

N = 16
EPOCHS = 8
_TREE = build_complete_tree(N, fanout=4)


@pytest.mark.parametrize("seed", [7, 2011])
@pytest.mark.parametrize("loss", [0.2, 0.35, 0.55])
def test_runtime_survivors_equal_the_parcel_fate_walk(loss: float, seed: int) -> None:
    plan = FaultPlan.uniform_loss(loss)
    # Merge deadlines far beyond the ARQ's worst delivered wait
    # (four backed-off timeouts plus one latency, about 227 ticks).
    config = RuntimeConfig(
        num_epochs=EPOCHS, plan=plan, seed=seed, hold_time=1000.0, querier_slack=1000.0
    )
    workload = UniformWorkload(N, 0, 1000, seed=seed)
    metrics = RuntimeSimulator(
        create_protocol("sies", N, seed=seed), _TREE, workload, config
    ).run()

    assert len(metrics.epochs) == EPOCHS
    for em in metrics.epochs:
        survivors = oracle_survivors(_TREE, plan, config.policy, seed, em.epoch)
        assert em.late_arrivals == 0
        assert em.recovery.survivors == survivors, em.epoch
        if survivors:
            assert em.security_failure is None and em.result is not None
            assert em.result.value == sum(workload(sid, em.epoch) for sid in survivors)
        else:
            assert em.result is None


def test_the_walk_is_not_vacuous() -> None:
    """At 55% loss the oracle predicts both whole and partial epochs."""
    plan = FaultPlan.uniform_loss(0.55)
    policy = RuntimeConfig().policy
    sizes = {
        len(oracle_survivors(_TREE, plan, policy, 7, epoch)) for epoch in range(1, EPOCHS + 1)
    }
    assert N in sizes and any(size < N for size in sizes)
