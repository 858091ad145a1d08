"""The discrete-event scheduler: ordering, cancellation, determinism."""

from __future__ import annotations

import functools

import pytest

from repro.errors import SimulationError
from repro.runtime.events import EventScheduler


def test_fires_in_time_order() -> None:
    scheduler = EventScheduler()
    fired: list[str] = []
    scheduler.call_at(5.0, lambda: fired.append("late"))
    scheduler.call_at(1.0, lambda: fired.append("early"))
    scheduler.call_at(3.0, lambda: fired.append("middle"))
    scheduler.run()
    assert fired == ["early", "middle", "late"]
    assert scheduler.now == 5.0


def test_ties_break_by_scheduling_order() -> None:
    scheduler = EventScheduler()
    fired: list[int] = []
    for i in range(10):
        scheduler.call_at(2.0, lambda i=i: fired.append(i))
    scheduler.run()
    assert fired == list(range(10))


def test_events_scheduled_while_running() -> None:
    scheduler = EventScheduler()
    fired: list[str] = []

    def first() -> None:
        fired.append("first")
        scheduler.call_later(1.0, lambda: fired.append("nested"))

    scheduler.call_at(1.0, first)
    scheduler.call_at(1.5, lambda: fired.append("between"))
    scheduler.run()
    assert fired == ["first", "between", "nested"]


def test_cancellation() -> None:
    scheduler = EventScheduler()
    fired: list[str] = []
    doomed = scheduler.call_at(2.0, lambda: fired.append("doomed"))
    scheduler.call_at(1.0, doomed.cancel)
    scheduler.call_at(3.0, lambda: fired.append("survivor"))
    scheduler.run()
    assert fired == ["survivor"]


def test_cannot_schedule_into_the_past() -> None:
    scheduler = EventScheduler()
    scheduler.call_at(5.0, lambda: None)
    scheduler.run()
    with pytest.raises(SimulationError):
        scheduler.call_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.call_later(-0.1, lambda: None)


def test_runaway_loop_detected() -> None:
    scheduler = EventScheduler()

    def reschedule() -> None:
        scheduler.call_later(1.0, reschedule)

    scheduler.call_at(0.0, reschedule)
    with pytest.raises(SimulationError, match="event budget"):
        scheduler.run(max_events=1000)


def test_until_predicate_stops_the_loop() -> None:
    scheduler = EventScheduler()
    fired: list[int] = []
    for i in range(5):
        scheduler.call_at(float(i), lambda i=i: fired.append(i))
    scheduler.run(until=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]
    assert scheduler.pending == 2


def test_cancelled_and_live_event_tied_at_the_same_time() -> None:
    scheduler = EventScheduler()
    fired: list[str] = []
    doomed = scheduler.call_at(2.0, lambda: fired.append("doomed"))
    scheduler.call_at(2.0, lambda: fired.append("live"))
    doomed.cancel()
    scheduler.run()
    assert fired == ["live"]
    assert scheduler.now == 2.0
    assert scheduler.events_processed == 1


def test_pending_excludes_cancelled_events() -> None:
    scheduler = EventScheduler()
    first = scheduler.call_at(1.0, lambda: None)
    scheduler.call_at(2.0, lambda: None)
    scheduler.call_at(2.0, lambda: None)
    assert scheduler.pending == 3
    first.cancel()
    assert scheduler.pending == 2
    scheduler.run()
    assert scheduler.pending == 0


def test_incomparable_actions_at_equal_times_never_get_compared() -> None:
    # functools.partial objects define no ordering: if the heap ever fell
    # through to comparing events, this would raise TypeError.
    scheduler = EventScheduler()
    fired: list[int] = []
    for i in range(20):
        scheduler.call_at(1.0, functools.partial(fired.append, i))
    scheduler.call_at(0.5, functools.partial(fired.append, -1))
    scheduler.run()
    assert fired == [-1, *range(20)]
