"""Discrete-event simulation engine.

The whole machine model is driven by a single time-bucketed event
queue.  Components schedule callbacks at absolute times
(:meth:`Simulator.at`) or relative delays (:meth:`Simulator.after`).
Events scheduled for the same time fire in scheduling order, which
makes every simulation run fully deterministic.

Time is measured in *pclocks* (processor clock cycles, 10 ns at the
paper's 100 MHz clock).  Times are plain integers; fractional delays are
rounded up by the caller where they arise (e.g. bus cycles).

The queue is a heap of the distinct pending times (``_times``) and a
map from each of those times to its bucket, the list of its
``(fn, args)`` entries in push order (``_buckets``).  The processor's
clock counts whole pclocks and most references hit, so events pile up
on the same times: one heap operation serves a whole bucket, and the
bucket is dispatched by a plain ``for`` (R. Brown, "Calendar Queues",
CACM 31(10), 1988).  Push order within a time is the order of a heap
keyed on ``(time, insertion order)``; ``tests/test_sim_engine.py``
checks the two against each other on random schedules.

Fast-path contract (see docs/internals.md, "Performance notes"): the
processor's tight issue loop, the cache controller and the transport
push onto the queue directly and consume local hits without scheduling
their completion events.  They rely on three intra-package invariants
of this class:

* ``_times`` and ``_buckets`` are never rebound (holders of a
  reference always see the live queue);
* an event at time ``t >= now`` is pushed by appending ``(fn, args)``
  to ``_buckets[t]``, or, when ``t`` has no bucket, by storing
  ``[(fn, args)]`` there and pushing ``t`` onto ``_times``;
* ``_times[0]`` is the earliest time at which an event is still
  pending, so the crossing rule's test is ``times and times[0] <= t``.
  While ``run`` dispatches a bucket, its time stays on ``_times`` until
  just before the bucket's last event (the bucket itself has left
  ``_buckets``; a push at that time opens a new bucket, which fires
  after it).

``_until`` always carries the active ``run(until=...)`` horizon
(:data:`NO_HORIZON` outside such a window).  Elided events are added
straight to ``_events_fired`` so ``events_fired`` stays bit-identical
to the fully event-driven model.  ``run`` and ``step`` are not
re-entrant: a handler schedules events, it never dispatches them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import length_hint
from typing import Any, Callable, Iterator

#: value of ``Simulator._until`` when no bounded ``run(until=...)``
#: window is active; larger than any reachable simulation time.
NO_HORIZON = 1 << 62

Entry = tuple[Callable[..., None], tuple[Any, ...]]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """A deterministic event-driven simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.after(5, fired.append, "a")
    >>> sim.after(3, fired.append, "b")
    >>> sim.at(5, fired.append, "c")
    >>> sim.pending_events
    3
    >>> sim.run()
    >>> fired
    ['b', 'a', 'c']
    >>> sim.now, sim.events_fired
    (5, 3)
    """

    __slots__ = ("now", "_times", "_buckets", "_rest", "_events_fired",
                 "_until")

    def __init__(self) -> None:
        self.now: int = 0
        self._times: list[int] = []
        self._buckets: dict[int, list[Entry]] = {}
        #: the unfired leading events of the bucket ``run`` is
        #: dispatching (exhausted outside such a dispatch)
        self._rest: Iterator[Entry] = iter(())
        self._events_fired: int = 0
        self._until: int = NO_HORIZON

    def at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, current time is {self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heappush(self._times, time)
        else:
            bucket.append((fn, args))

    def after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` pclocks from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at(self.now + delay, fn, *args)

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (including credited ones)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue."""
        n = sum(map(len, self._buckets.values()))
        if len(self._times) > len(self._buckets):
            # read by a handler among a bucket's leading events: the
            # bucket's unfired rest, and its last event, are pending
            n += length_hint(self._rest) + 1
        return n

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        times = self._times
        if not times:
            return False
        t = times[0]
        bucket = self._buckets[t]
        if len(bucket) == 1:
            heappop(times)
            del self._buckets[t]
            fn, args = bucket[0]
        else:
            fn, args = bucket.pop(0)
        self.now = t
        self._events_fired += 1
        fn(*args)
        return True

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Run until the event queue drains.

        ``until`` stops the clock at a given time (events beyond it
        remain queued, and ``now`` always advances to ``until`` even if
        the queue drains -- or was empty -- first); ``max_events``
        guards against runaway simulations.  ``events_fired`` is exact
        whenever control leaves the loop: the guard trips after
        exactly ``max_events`` events, and a handler that raises has
        been counted while the events after it stay queued.
        """
        times = self._times
        buckets = self._buckets
        horizon = NO_HORIZON if until is None else until
        limit = NO_HORIZON if max_events is None else max_events
        self._until = horizon
        try:
            while times:
                t = times[0]
                if t > horizon:
                    break
                bucket = buckets.pop(t)
                n = len(bucket)
                # the whole bucket is counted up front; a raise among
                # its leading events takes the unfired rest back out
                fired = self._events_fired + n
                if fired > limit:
                    buckets[t] = bucket
                    self._exhaust(limit, max_events)
                self._events_fired = fired
                self.now = t
                if n == 1:
                    heappop(times)
                    fn, args = bucket[0]
                else:
                    fn, args = bucket.pop()
                    self._rest = rest = iter(bucket)
                    try:
                        for f, a in rest:
                            f(*a)
                    except BaseException:
                        self._requeue(t, fn, args)
                        raise
                    heappop(times)
                fn(*args)
        finally:
            self._until = NO_HORIZON
        if until is not None and until > self.now:
            self.now = until

    def _exhaust(self, limit: int, max_events: int | None) -> None:
        """Fire what is left of the budget one event at a time, then trip."""
        for _ in range(limit - self._events_fired):
            self.step()
        raise SimulationError(
            f"event budget of {max_events} exhausted at t={self.now}"
        )

    def _requeue(self, t: int, fn: Callable[..., None],
                 args: tuple[Any, ...]) -> None:
        """Queue again what a raising handler left of the bucket at ``t``.

        The unfired rest goes back ahead of anything pushed at ``t``
        during the dispatch, and leaves the event count.
        """
        rest = list(self._rest)
        rest.append((fn, args))
        self._events_fired -= len(rest)
        newer = self._buckets.get(t)
        if newer is not None:
            rest += newer
            # ``t`` was queued twice: for the dispatch and for ``newer``
            heappop(self._times)
        self._buckets[t] = rest
