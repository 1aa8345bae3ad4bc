"""Blocking processor model.

"Standard, off-the-shelf processors with blocking loads will do" (§2).
The processor consumes a reference stream of operations:

* ``('think', n)``        -- n pclocks of local computation (includes
  instruction fetches and private-data accesses, which the paper
  simulates as always hitting in the FLC),
* ``('read', addr)``      -- shared read (blocking),
* ``('write', addr)``     -- shared write (buffered under RC, blocking
  under SC),
* ``('acquire', addr)``   -- lock acquire,
* ``('release', addr)``   -- lock release,
* ``('barrier', bar_id)`` -- global barrier.

Execution time decomposes into busy / read-stall / write-stall /
acquire-stall / release-stall exactly as in Figures 2 and 3.

Each processor runs one *issue loop*, a generator created with the
processor and suspended between ops: its queue entries and the
cache's ``on_done`` continuations all hold its bound ``__next__``, so
resuming it costs one frame switch.  A completion event the loop
cannot elide is appended to its time's bucket of the event queue (see
:mod:`repro.sim.engine`) as one shared ``(resume, ())`` entry.
Consecutive ``think`` ops and local cache hits (FLC hits, FLWB
store-to-load forwards, buffered writes, RC releases) are consumed in
pure Python without scheduling their completion events.  The loop
tracks its own local clock ``t`` and only suspends when an op misses,
synchronizes, or when the next completion boundary is not provably
event-free.  The crossing rule
that keeps this bit-identical to the one-event-per-op model:

    advancing inline from ``t`` to ``t2`` is allowed only if no event
    is pending at or before ``t2`` -- the queue's earliest pending
    time, ``_times[0]``, is *strictly after* ``t2`` -- and ``t2`` does
    not cross an active ``run(until=...)`` horizon.

Under that rule no event could have observed or interleaved with the
skipped window, every issue-time side effect (FCFS reservations,
message sends, buffer pushes) happens in the original order, and each
elided completion event is added to ``Simulator._events_fired`` -- so
all counters, all timings and ``events_fired`` match the
pre-fast-path simulator exactly (pinned by the golden parity tests).
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Iterable, Iterator

from repro.config import Consistency, SystemConfig
from repro.core.cache_ctrl import CacheController
from repro.sim.engine import SimulationError, Simulator
from repro.stats.counters import ProcessorStats

Op = tuple


class Processor:
    """One simulated processor driving a reference stream."""

    __slots__ = (
        "node_id",
        "_sim",
        "_cache",
        "stats",
        "_on_finish",
        "finished",
        "_flc_hit",
        "_resume",
        "_stall_addr",
        "_stall_t0",
    )

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        cfg: SystemConfig,
        cache: CacheController,
        workload: Iterable[Op],
        stats: ProcessorStats,
        on_finish: Callable[[int], None],
    ) -> None:
        self.node_id = node_id
        self._sim = sim
        self._cache = cache
        self.stats = stats
        self._on_finish = on_finish
        self.finished = False
        self._flc_hit = cfg.timing.flc_hit
        #: the write (and its issue time) stalled on a full FLWB.
        self._stall_addr = -1
        self._stall_t0 = 0
        #: resumes the issue loop.  The processor blocks on at most one
        #: reference at a time, so this one bound method serves as the
        #: queue entry and as every ``on_done`` continuation.
        self._resume = self._issue_loop(workload, cfg).__next__

    def start(self) -> None:
        """Begin issuing references at time 0."""
        self._sim.at(self._sim.now, self._resume)

    # ------------------------------------------------------------------

    def _issue_loop(
        self, workload: Iterable[Op], cfg: SystemConfig
    ) -> Iterator[None]:
        sim = self._sim
        times = sim._times
        bucket_at = sim._buckets.get
        buckets = sim._buckets
        stats = self.stats
        cache = self._cache
        # aliases into the cache's FLC/FLWB internals: the FLC-hit
        # probe and the FLWB-room check are replicated here so the two
        # overwhelmingly common outcomes (read hits, buffered writes)
        # cost no call at all
        flwb = cache.flwb
        flc_sets = cache.flc._sets
        flc_nsets = cache.flc._n_sets
        bsize = cache._bsize
        flc_hit = self._flc_hit
        sc = cfg.consistency is Consistency.SC
        n_procs = cfg.n_procs
        resume = self._resume
        # the loop's completion event, one shared queue entry
        entry = (resume, ())
        t = sim.now
        credits = 0
        # busy time accumulates in a local and reaches the stats object
        # when the stream ends (nothing reads it mid-run); reference
        # counts go straight to the stats object at issue, so an
        # observer firing between ops (``EpochSampler``) reads them
        # exact without a flush at every suspension
        busy = 0
        # None while ops complete on their own; a suspended blocking op
        # names the stats field its wait is charged to ("" when
        # ``_write_retry`` charges it)
        wait = None
        for kind, arg in workload:
            if kind == "think":
                busy += arg
                t2 = t + arg
            elif kind == "read":
                stats.shared_reads += 1
                block = arg // bsize
                if flc_sets.get(block % flc_nsets) == block:
                    # FLC hit, probed without leaving the loop (the
                    # first check ``read_at`` would make, so skipping
                    # the call is exact)
                    busy += flc_hit
                    t2 = t + flc_hit
                else:
                    t2 = cache.read_at(arg, t, resume)
                    if t2 < 0:
                        # miss: the controller owns the continuation
                        wait = "read_stall"
                    else:
                        # store-to-load forward (dt == flc_hit) or an
                        # inline SLC hit (dt > flc_hit): the same split
                        # as a resumed read
                        dt = t2 - t
                        if dt > flc_hit:
                            busy += flc_hit
                            stats.read_stall += dt - flc_hit
                        else:
                            busy += dt
            elif kind == "write":
                stats.shared_writes += 1
                if sc:
                    cache.write_blocking_at(arg, resume, t)
                    wait = "write_stall"
                elif flwb._writes < flwb.capacity:
                    cache.buffer_write_at(arg, t)
                    busy += flc_hit
                    t2 = t + flc_hit
                else:
                    self._stall_addr = arg
                    self._stall_t0 = t
                    cache.when_write_space(self._write_retry)
                    wait = ""
            elif kind == "acquire":
                stats.acquires += 1
                cache.acquire_at(arg, resume, t)
                wait = "acquire_stall"
            elif kind == "release":
                stats.releases += 1
                if sc:
                    cache.release_at(arg, t, resume)
                    wait = "release_stall"
                else:
                    # RCpc: the release is inserted and the processor
                    # continues after the FLC write-through
                    cache.release_at(arg, t)
                    busy += flc_hit
                    t2 = t + flc_hit
            elif kind == "barrier":
                stats.barriers += 1
                cache.barrier_at(arg, n_procs, resume, t)
                # barrier wait is accounted as acquire stall, as in the
                # paper's busy / read / acquire decomposition under RC
                wait = "barrier"
            else:
                raise SimulationError(f"unknown workload op {(kind, arg)!r}")
            if wait is None:
                if not ((times and times[0] <= t2) or t2 > sim._until):
                    t = t2
                    credits += 1
                    continue
                # a queued event (or the run horizon) falls inside the
                # window: fall back to a real completion event at t2,
                # which resumes the loop at t2
                bucket = bucket_at(t2)
                if bucket is None:
                    buckets[t2] = [entry]
                    heappush(times, t2)
                else:
                    bucket.append(entry)
                t = t2
            if credits:
                sim._events_fired += credits
                credits = 0
            yield
            if wait is not None:
                # resumed by the op's ``on_done``: the wait ran from
                # issue time ``t``
                now = sim.now
                if wait:
                    dt = now - t
                    if wait == "barrier":
                        stats.acquire_stall += dt
                    elif dt > flc_hit:
                        busy += flc_hit
                        stall = getattr(stats, wait) + dt - flc_hit
                        setattr(stats, wait, stall)
                    else:
                        busy += dt
                wait = None
                t = now
        # stream exhausted at boundary ``t``; the crossing rule
        # guarantees nothing fires before ``t``, so finishing inline
        # is indistinguishable from the elided completion event.
        self.finished = True
        stats.finish_time = t
        stats.busy += busy
        if credits:
            sim._events_fired += credits
        self._on_finish(self.node_id)
        # suspend for good, so the resume that ends the stream returns
        yield

    def _write_retry(self) -> None:
        if not self._cache.can_buffer_write():
            self._cache.when_write_space(self._write_retry)
            return
        # ``_stall_t0`` was recorded once, when the stall began, so the
        # stall is charged exactly once however many wakeups it took
        self.stats.write_stall += self._sim.now - self._stall_t0
        self._cache.buffer_write(self._stall_addr)
        self.stats.busy += self._flc_hit
        self._sim.after(self._flc_hit, self._resume)
