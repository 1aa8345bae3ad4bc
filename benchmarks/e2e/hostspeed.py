"""Host speed, sampled while a benchmark child runs.

A shared host runs the interpreter at a speed that drifts by up to 2x,
in phases of seconds to minutes.  The drift shows neither as steal time
nor as a gap between CPU time and wall time, so raw host seconds vary
between runs by more than any useful bound.  So the child samples the
speed *during* each stretch it times: every :data:`SAMPLE_INTERVAL_S`
a ``SIGALRM`` handler runs a fixed probe, interpreter work shaped like
the simulator's, and records how long it took.  The parent rescales
each stretch's host seconds by :data:`REFERENCE_PROBE_S` over the mean
probe time inside it (see README.md, "Host speed").  The handler's own
time is kept apart and left out of the stretch.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time

#: mean seconds of one probe on the reference host, a 2-core x86-64 VM
#: running CPython 3.11, while the times in README.md were measured.
REFERENCE_PROBE_S = 0.0012
SAMPLE_INTERVAL_S = 0.025
#: a stretch with fewer samples is topped up with probes run after it.
MIN_SAMPLES = 5
PROBE_EVENTS = 400
TABLE_KEYS = 1 << 14


class _Node:
    __slots__ = ("visits",)

    def __init__(self) -> None:
        self.visits = 0

    def visit(self, when: int) -> int:
        self.visits += 1
        return when & 15


class Sampler:
    """Probe samples and the seconds spent taking them, for one process.

    A stretch runs from :meth:`mark` to :meth:`stretch`.  Building the
    sampler counts as time spent, so it too stays out of the stretches.
    """

    def __init__(self) -> None:
        t0 = time.perf_counter()
        keys = list(range(TABLE_KEYS))
        random.Random(1994).shuffle(keys)
        #: one cycle through every key, in shuffled order
        self._table = {a: (b, a & 7)
                       for a, b in zip(keys, keys[1:] + keys[:1])}
        self._nodes = [_Node() for _ in range(64)]
        self.samples: list[float] = []
        # the interpreter specializes the probe's code over its first
        # runs, which read up to 1.5x slow
        for _ in range(3):
            self.probe()
        self.spent_s = time.perf_counter() - t0

    def probe(self) -> float:
        """Seconds of one probe, run now: a heap-ordered event loop that
        calls methods on slotted objects and reads and writes a dict,
        whose second half also walks a table larger than a core's
        private caches.

        The probe is timed in this thread's CPU seconds, so a probe that
        waits for a core (``sweep_jobs2`` runs two workers beside this
        process on two cores) reads the core's speed, not the wait.
        """
        nodes, table = self._nodes, self._table
        t0 = time.thread_time()
        scratch: dict[int, int] = {}
        heap = [(i, i) for i in range(len(nodes))]
        total = key = 0
        for i in range(2 * PROBE_EVENTS):
            when, n = heapq.heappop(heap)
            total += nodes[n].visit(when)
            scratch[when & 255] = total
            total += scratch.get((when * 7) & 255, 0) & 15
            if i >= PROBE_EVENTS:
                key, step = table[key]
                total += step
            heapq.heappush(heap, (when + (n & 7) + 1, n))
        return time.thread_time() - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        """Sample every :data:`SAMPLE_INTERVAL_S` until :meth:`stop`.

        A signal mask survives ``exec``, so a launcher that blocks
        ``SIGALRM`` would leave every stretch to its top-up probes; the
        sampler unblocks it.
        """
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent_s

    def stretch(self, mark: tuple[int, float]) -> tuple[float, float]:
        """``(mean probe seconds, seconds spent sampling)`` since ``mark``.

        Call it as soon as the stretch ends: the top-up probes run after
        the seconds spent are read.
        """
        first, spent_before = mark
        spent = self.spent_s - spent_before
        taken = self.samples[first:]
        while len(taken) < MIN_SAMPLES:
            taken.append(self.probe())
        return statistics.fmean(taken), spent
