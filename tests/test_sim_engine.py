"""Unit tests for the discrete-event simulation engine."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_module_doctest_runs():
    import doctest

    import repro.sim.engine

    result = doctest.testmod(repro.sim.engine)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"max_events": 1000}, {"until": 1000}],
    ids=["unbounded", "budget", "until"],
)
def test_raise_mid_bucket_keeps_the_rest_of_the_bucket(kwargs):
    sim = Simulator()
    seen = []

    def ev(i):
        seen.append((i, sim.now, sim.pending_events))
        if i == 1:
            # pushed at the raising event's own time: fires after the
            # rest of the bucket, as a (time, seq) heap orders it
            sim.at(sim.now, ev, 9)
            raise ValueError("boom")

    for i in range(4):
        sim.at(5, ev, i)
    sim.at(8, ev, 4)
    with pytest.raises(ValueError, match="boom"):
        sim.run(**kwargs)
    assert seen == [(0, 5, 4), (1, 5, 3)]
    assert sim.events_fired == 2
    assert sim.now == 5
    # 2 and 3 (the rest of the bucket), 9, and 4 at t=8
    assert sim.pending_events == 4
    sim.run()
    assert seen[2:] == [(2, 5, 3), (3, 5, 2), (9, 5, 1), (4, 8, 0)]
    assert sim.events_fired == 6
    assert sim.pending_events == 0


def test_raise_in_the_last_event_of_a_bucket():
    sim = Simulator()
    seen = []

    def ev(i):
        seen.append((i, sim.pending_events))
        if i == 2:
            raise ValueError("boom")

    for i in range(3):
        sim.at(5, ev, i)
    sim.at(6, ev, 3)
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert seen == [(0, 3), (1, 2), (2, 1)]
    assert (sim.events_fired, sim.pending_events) == (3, 1)
    sim.run()
    assert seen[3:] == [(3, 0)]
    assert sim.events_fired == 4


def test_raise_under_step_keeps_the_rest_of_the_bucket():
    sim = Simulator()
    seen = []

    def ev(i):
        seen.append(i)
        if i == 0:
            raise ValueError("boom")

    for i in range(3):
        sim.at(2, ev, i)
    with pytest.raises(ValueError, match="boom"):
        sim.step()
    assert (sim.events_fired, sim.pending_events) == (1, 2)
    sim.run()
    assert seen == [0, 1, 2]


def test_budget_trips_inside_a_bucket():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.at(3, seen.append, i)
    with pytest.raises(SimulationError, match="budget of 2 exhausted at t=3"):
        sim.run(max_events=2)
    assert seen == [0, 1]
    assert (sim.events_fired, sim.pending_events) == (2, 3)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# the bucketed queue against a (time, seq) heap, on random schedules
# ----------------------------------------------------------------------


class HeapSimulator:
    """Reference engine: one ``(time, seq, fn, args)`` heap entry per event.

    The queue the bucketed ``Simulator`` replaced, with the same public
    surface.
    """

    def __init__(self):
        self.now = 0
        self.events_fired = 0
        self._heap = []
        self._seq = itertools.count()

    def at(self, time, fn, *args):
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, current time is {self.now}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))

    def after(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at(self.now + delay, fn, *args)

    @property
    def pending_events(self):
        return len(self._heap)

    def step(self):
        if not self._heap:
            return False
        self._fire()
        return True

    def run(self, until=None, max_events=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            if max_events is not None and self.events_fired >= max_events:
                raise SimulationError(
                    f"event budget of {max_events} exhausted at t={self.now}"
                )
            self._fire()
        if until is not None and until > self.now:
            self.now = until

    def _fire(self):
        time, _seq, fn, args = heapq.heappop(self._heap)
        self.now = time
        self.events_fired += 1
        fn(*args)


def earliest(sim):
    """The time the elision sites' crossing-rule test reads."""
    if isinstance(sim, HeapSimulator):
        return sim._heap[0][0] if sim._heap else None
    return sim._times[0] if sim._times else None


class Boom(Exception):
    pass


class World:
    """Events whose handlers log what they see and push more events.

    Event ``e`` follows ``plans[e % len(plans)]``: a list of pushes
    ``(delay, burst, via_after)`` -- ``burst`` events ``delay`` pclocks
    from now, through ``after`` or ``at`` -- and whether it raises
    after pushing.  At most ``cap`` events are ever made.
    """

    def __init__(self, sim, plans, cap=120):
        self.sim = sim
        self.plans = plans
        self.cap = cap
        self.next_id = 0
        self.log = []

    def spawn(self, time):
        self.next_id += 1
        self.sim.at(time, self.handle, self.next_id - 1)

    def handle(self, eid):
        sim = self.sim
        self.log.append((eid, sim.now, sim.pending_events, earliest(sim)))
        pushes, raises = self.plans[eid % len(self.plans)]
        for delay, burst, via_after in pushes:
            for _ in range(burst):
                if self.next_id >= self.cap:
                    break
                self.next_id += 1
                if via_after:
                    sim.after(delay, self.handle, self.next_id - 1)
                else:
                    sim.at(sim.now + delay, self.handle, self.next_id - 1)
        if raises:
            raise Boom(eid)


_PLANS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3),
                           st.booleans()), max_size=3),
        # raising is the rarer plan
        st.sampled_from([False, False, False, True]),
    ),
    min_size=1, max_size=8,
)

_OPS = st.lists(
    st.one_of(
        st.just(("step",)),
        st.tuples(st.just("run"),
                  st.none() | st.integers(0, 12),
                  st.none() | st.integers(0, 25)),
    ),
    max_size=12,
)


def _apply(world, op):
    """Run one driver op; returns what it raised, as comparable data."""
    sim = world.sim
    try:
        if op[0] == "step":
            return ("ok", sim.step())
        _, until, budget = op
        sim.run(
            until=None if until is None else sim.now + until,
            max_events=None if budget is None else sim.events_fired + budget,
        )
        return ("ok", None)
    except (Boom, SimulationError) as exc:
        return (type(exc).__name__, str(exc))


def _observe(world):
    sim = world.sim
    return (list(world.log), sim.now, sim.events_fired, sim.pending_events,
            earliest(sim))


@settings(max_examples=300, deadline=None)
@given(seeds=st.lists(st.integers(0, 6), min_size=1, max_size=10),
       plans=_PLANS, ops=_OPS)
def test_bucketed_queue_matches_a_time_seq_heap(seeds, plans, ops):
    worlds = [World(Simulator(), plans), World(HeapSimulator(), plans)]
    for world in worlds:
        for t in seeds:
            world.spawn(t)
    new, ref = worlds
    assert _observe(new) == _observe(ref)
    for op in ops:
        assert _apply(new, op) == _apply(ref, op), op
        assert _observe(new) == _observe(ref), op
    # drain both, through every raise
    for _ in range(200):
        assert _apply(new, ("run", None, None)) == _apply(ref, ("run", None, None))
        assert _observe(new) == _observe(ref)
        if not ref.sim.pending_events:
            break
    assert new.sim.pending_events == 0
