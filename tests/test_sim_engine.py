"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.after(5, fired.append, "late")
    sim.after(1, fired.append, "early")
    sim.after(3, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_ties_break_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(7, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.after(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.after(10, inner)

    def inner():
        fired.append(("inner", sim.now))

    sim.after(5, outer)
    sim.run()
    assert fired == [("outer", 5), ("inner", 15)]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.after(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.after(5, fired.append, "a")
    sim.after(50, fired.append, "b")
    sim.run(until=10)
    assert fired == ["a"]
    assert sim.now == 10
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_when_heap_drains():
    # the clock must reach `until` even if the queue empties first
    # (or was empty all along) -- epoch-stepped drivers rely on it.
    sim = Simulator()
    fired = []
    sim.after(3, fired.append, "a")
    sim.run(until=10)
    assert fired == ["a"]
    assert sim.now == 10
    sim.run(until=25)
    assert sim.now == 25
    assert sim.pending_events == 0


def test_max_events_guard():
    sim = Simulator()

    def loop():
        # bounded, so a guard that never trips fails instead of hanging
        if sim.now < 1000:
            sim.after(1, loop)

    sim.after(0, loop)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.after(1, lambda: None)
    assert sim.step() is True
    assert sim.events_fired == 1


def test_event_args_passed_through():
    sim = Simulator()
    got = []
    sim.after(1, lambda a, b: got.append((a, b)), 1, "x")
    sim.run()
    assert got == [(1, "x")]


def test_max_events_guard_trips_after_exactly_the_budget():
    sim = Simulator()

    def loop():
        # bounded, so a guard that never trips fails instead of hanging
        if sim.now < 1000:
            sim.after(1, loop)

    sim.after(0, loop)
    with pytest.raises(SimulationError, match="budget of 100"):
        sim.run(max_events=100)
    assert sim.events_fired == 100
    assert sim.now == 99


def test_max_events_guard_spans_many_dispatch_chunks():
    # far more queued events than the budget: the guard still trips
    # on the exact event count, not on a chunk boundary
    sim = Simulator()
    for i in range(3000):
        sim.at(i, lambda: None)
    with pytest.raises(SimulationError, match="budget of 2500"):
        sim.run(max_events=2500)
    assert sim.events_fired == 2500
    assert sim.now == 2499
    assert sim.pending_events == 500


def test_budget_equal_to_the_work_does_not_trip():
    sim = Simulator()
    for i in range(100):
        sim.at(i, lambda: None)
    sim.run(max_events=100)
    assert sim.events_fired == 100
    assert sim.pending_events == 0


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"max_events": 1000}, {"until": 1000}],
    ids=["unbounded", "budget", "until"],
)
def test_raising_handler_is_counted(kwargs):
    sim = Simulator()
    calls = []

    def tick():
        calls.append(sim.now)
        if len(calls) == 5:
            raise ValueError("boom")
        sim.after(1, tick)

    sim.after(0, tick)
    # a few bystanders that never get to run
    for t in (50, 60, 70):
        sim.at(t, lambda: None)
    with pytest.raises(ValueError, match="boom"):
        sim.run(**kwargs)
    assert sim.events_fired == 5
    assert sim.now == 4
    assert sim.pending_events == 3
    # the engine stays usable: the horizon was reset and the
    # remaining events run on the next call
    sim.run()
    assert sim.events_fired == 8
    assert sim.now == 70
