"""The hold-and-wait epoch, written once for both lossy substrates.

:class:`~repro.runtime.simulator.RuntimeSimulator` drives these rules
from :class:`~repro.runtime.events.EventScheduler` events, the TCP
cluster from socket arrivals and
:class:`~repro.cluster.clock.ClusterClock` waits.  The module itself
has no clock and performs no I/O.

* :class:`EpochSchedule` — who reports (:class:`EpochPlan`), node
  heights, and the deadlines: an aggregator at height ``h`` merges at
  ``start + hold_time × h``; the querier gives up at
  ``start + hold_time × (root height + 1) + querier_slack``.
* :class:`MergeInbox` — one aggregator's inbox for one epoch.
* :class:`Settlement` — the querier's verdict on one epoch, as an
  :class:`EpochOutcome`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import SecurityError
from repro.network.topology import AggregationTree
from repro.protocols.base import AggregatorRole, EvaluationResult, PartialStateRecord, QuerierRole
from repro.runtime.recovery import EpochRecovery

__all__ = ["EpochOutcome", "EpochPlan", "EpochSchedule", "MergeInbox", "Settlement"]


@dataclass(frozen=True)
class EpochPlan:
    """Who reports in one epoch, and what each aggregator waits for."""

    epoch: int
    #: Sources that attempt to report.
    attempted: frozenset[int]
    #: Sources known to have failed before the epoch began.
    pre_failed: frozenset[int]
    #: aggregator id -> child contributions that can arrive this epoch.
    expected: dict[int, int]


class EpochSchedule:
    """The per-run hold-and-wait timetable over one aggregation tree.

    Deadlines are offsets from an epoch's *start*, in whatever time unit
    the driver uses (logical ticks or real seconds).
    """

    def __init__(self, tree: AggregationTree, *, hold_time: float, querier_slack: float) -> None:
        self.tree = tree
        self.hold_time = hold_time
        self.querier_slack = querier_slack
        #: Aggregators ordered children-first (the merge order).
        self.merge_order = tree.bottom_up_aggregators()
        #: Node heights: sources 0, aggregators 1 + their tallest child.
        self.heights: dict[int, int] = {sid: 0 for sid in tree.source_ids}
        for aid in self.merge_order:
            self.heights[aid] = 1 + max(self.heights[c] for c in tree.children(aid))

    def open(self, epoch: int, failed: Callable[[int], bool]) -> EpochPlan:
        """Split the sources by *failed* and count expected contributions."""
        pre_failed = frozenset(sid for sid in self.tree.source_ids if failed(sid))
        attempted = frozenset(self.tree.source_ids) - pre_failed
        return EpochPlan(epoch, attempted, pre_failed, self.expected_contributions(attempted))

    def expected_contributions(self, attempted: frozenset[int]) -> dict[int, int]:
        """Per-aggregator count of child contributions that could arrive.

        A child source counts iff it attempted to report; a child
        aggregator counts iff any attempted source sits in its subtree.
        An aggregator merges early once that many have arrived, so
        deadlines only matter when the network actually loses something.
        """
        expected: dict[int, int] = {}
        live: dict[int, bool] = {sid: sid in attempted for sid in self.tree.source_ids}
        for aid in self.merge_order:
            expected[aid] = sum(1 for child in self.tree.children(aid) if live[child])
            live[aid] = expected[aid] > 0
        return expected

    def merge_deadline(self, aid: int, start: float = 0.0) -> float:
        """When aggregator *aid* merges whatever has arrived."""
        return start + self.hold_time * self.heights[aid]

    def querier_deadline(self, start: float = 0.0) -> float:
        """When the querier stops waiting for the epoch's final PSR."""
        root_height = self.heights[self.tree.root_id]
        return start + self.hold_time * (root_height + 1) + self.querier_slack


class MergeInbox:
    """One aggregator's hold-and-wait inbox for one epoch.

    It merges early once every expected child has arrived, or at its
    deadline.  A copy that arrives after it closed is late.  A dead
    aggregator, or one whose whole subtree was lost, forwards nothing;
    the root finalizes for the querier; the forwarded manifest is the
    union of the children's manifests.
    """

    __slots__ = ("expected", "received", "closed")

    def __init__(self, expected: int) -> None:
        self.expected = expected
        #: (psr, manifest) per delivered child contribution, in arrival order.
        self.received: list[tuple[PartialStateRecord, frozenset[int]]] = []
        self.closed = False

    def offer(self, psr: PartialStateRecord, manifest: frozenset[int]) -> bool:
        """Hold one on-time contribution; True once every expected child arrived."""
        self.received.append((psr, manifest))
        return len(self.received) >= self.expected

    def close(
        self, role: AggregatorRole, epoch: int, *, is_root: bool, alive: bool = True
    ) -> tuple[PartialStateRecord, frozenset[int]] | None:
        """Close the inbox; the merged PSR and manifest to forward, or None."""
        self.closed = True
        received, self.received = self.received, []
        if not alive or not received:
            return None
        merged = role.merge(epoch, [psr for psr, _ in received])
        if is_root:
            merged = role.finalize_for_querier(merged)
        return merged, frozenset().union(*(manifest for _, manifest in received))


@dataclass
class EpochOutcome:
    """One epoch as the querier settled it."""

    epoch: int
    recovery: EpochRecovery
    result: EvaluationResult | None = None
    #: Security exception class name raised by the querier, if any;
    #: ``"MessageLost"``/``"NoResult"`` when no final PSR arrived.
    security_failure: str | None = None
    #: Driver time from epoch start to the querier's verdict (0 if lost).
    completion_latency: float = 0.0
    #: Copies of this epoch's traffic that arrived after their receiver
    #: closed (the event runtime's tally; the cluster counts them per edge).
    late_arrivals: int = 0

    @property
    def accepted(self) -> bool:
        return self.result is not None and self.security_failure is None


class Settlement:
    """The querier's side of one epoch.

    The first final PSR settles it: its manifest is the paper's
    reported-failure subset (Section IV-B), and the exact SUM is
    evaluated over those survivors.  A final PSR after that is late.
    """

    __slots__ = ("plan", "started_at", "outcome")

    def __init__(self, plan: EpochPlan, started_at: float) -> None:
        self.plan = plan
        self.started_at = started_at
        self.outcome: EpochOutcome | None = None

    @property
    def settled(self) -> bool:
        return self.outcome is not None

    def settle(
        self,
        psr: PartialStateRecord,
        manifest: frozenset[int],
        *,
        now: float,
        querier: QuerierRole | None,
        num_sources: int,
    ) -> EpochOutcome:
        """Settle on the first final PSR; *querier* None skips evaluation."""
        plan = self.plan
        recovery = EpochRecovery.from_final_manifest(
            plan.epoch, attempted=plan.attempted, manifest=manifest, pre_failed=plan.pre_failed
        )
        outcome = EpochOutcome(plan.epoch, recovery, completion_latency=now - self.started_at)
        if querier is not None:
            subset = recovery.reporting_subset(num_sources)
            try:
                outcome.result = querier.evaluate(plan.epoch, psr, reporting_sources=subset)
            except SecurityError as exc:
                outcome.security_failure = type(exc).__name__
        self.outcome = outcome
        return outcome

    def expire(self) -> EpochOutcome:
        """The querier's deadline: the settled outcome, or a lost epoch.

        Lost, not wrong: ``MessageLost`` if any source attempted,
        ``NoResult`` if none did.
        """
        if self.outcome is None:
            plan = self.plan
            recovery = EpochRecovery(
                epoch=plan.epoch,
                attempted=plan.attempted,
                survivors=frozenset(),
                pre_failed=plan.pre_failed,
                converged=False,
            )
            failure = "MessageLost" if plan.attempted else "NoResult"
            self.outcome = EpochOutcome(plan.epoch, recovery, security_failure=failure)
        return self.outcome

