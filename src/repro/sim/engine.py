"""Discrete-event simulation engine.

The whole machine model is driven by a single event heap.  Components
schedule callbacks at absolute times (:meth:`Simulator.at`) or relative
delays (:meth:`Simulator.after`).  Events scheduled for the same time fire
in scheduling order (a monotonically increasing sequence number breaks
ties), which makes every simulation run fully deterministic.

Time is measured in *pclocks* (processor clock cycles, 10 ns at the
paper's 100 MHz clock).  Times are plain integers; fractional delays are
rounded up by the caller where they arise (e.g. bus cycles).

Fast-path contract (see docs/internals.md, "Performance notes"): the
processor's tight issue loop, the cache controller and the transport
push onto the heap directly and consume local hits without scheduling
their completion events.  They rely on three intra-package invariants
of this class: ``_heap`` is never rebound (holders of a reference
always see the live queue), every entry is ``(time, _next_seq(), fn,
args)`` (``_next_seq`` is one shared counter, so ties break in push
order wherever the push happens), and ``_until`` always carries the
active ``run(until=...)`` horizon (:data:`NO_HORIZON` outside such a
window).  Elided events are added straight to ``_events_fired`` so
``events_fired`` stays bit-identical to the fully event-driven model.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

#: value of ``Simulator._until`` when no bounded ``run(until=...)``
#: window is active; larger than any reachable simulation time.
NO_HORIZON = 1 << 62


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """A deterministic event-driven simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.after(5, fired.append, "a")
    >>> sim.after(3, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    __slots__ = ("now", "_heap", "_next_seq", "_events_fired", "_until")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Callable[..., None], tuple[Any, ...]]] = []
        #: the next tie-breaking sequence number (0, 1, 2, ...), one
        #: C call per push.
        self._next_seq: Callable[[], int] = itertools.count().__next__
        self._events_fired: int = 0
        self._until: int = NO_HORIZON

    def at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, current time is {self.now}"
            )
        heapq.heappush(self._heap, (time, self._next_seq(), fn, args))

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
        return len(self._heap)

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        if not self._heap:
            return False
        time, _seq, fn, args = heapq.heappop(self._heap)
        self.now = time
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
        been counted.
        """
        heap = self._heap
        pop = heapq.heappop
        self._until = NO_HORIZON if until is None else until
        try:
            if until is None:
                # Counted dispatch chunks: a chunk runs no more events
                # than the queue holds when it starts -- every event
                # pops one entry and pushes none or more, so the queue
                # cannot drain inside it -- nor more than the budget
                # left (credit-aware).  The ``for`` keeps the count,
                # added once per chunk; ``i`` names the event a
                # raising handler stopped at.
                limit = NO_HORIZON if max_events is None else max_events
                while heap:
                    n = limit - self._events_fired
                    if n <= 0:
                        raise SimulationError(
                            f"event budget of {max_events} exhausted "
                            f"at t={self.now}"
                        )
                    if n > len(heap):
                        n = len(heap)
                    i = -1
                    try:
                        for i in range(n):
                            time, _seq, fn, args = pop(heap)
                            self.now = time
                            fn(*args)
                    finally:
                        self._events_fired += i + 1
            else:
                while heap and heap[0][0] <= until:
                    if max_events is not None and (
                        self._events_fired >= max_events
                    ):
                        raise SimulationError(
                            f"event budget of {max_events} exhausted "
                            f"at t={self.now}"
                        )
                    time, _seq, fn, args = pop(heap)
                    self.now = time
                    self._events_fired += 1
                    fn(*args)
        finally:
            self._until = NO_HORIZON
        if until is not None and until > self.now:
            self.now = until
