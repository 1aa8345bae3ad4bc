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

``_next`` is a *tight issue loop*: consecutive ``think`` ops and local
cache hits (FLC hits, FLWB store-to-load forwards, buffered writes,
RC releases) are consumed in pure Python without scheduling their
completion events.  The loop tracks its own local clock ``t`` and only
returns to the event heap when an op misses, synchronizes, or when the
next completion boundary is not provably event-free.  The crossing
rule that keeps this bit-identical to the one-event-per-op model:

    advancing inline from ``t`` to ``t2`` is allowed only if the event
    heap is empty or its earliest entry fires *strictly after* ``t2``,
    and ``t2`` does not cross an active ``run(until=...)`` horizon.

Under that rule no event could have observed or interleaved with the
skipped window, every issue-time side effect (FCFS reservations,
message sends, buffer pushes) happens in the original order, and each
elided completion event is re-counted via ``Simulator.credit_events``
-- so all counters, all timings and ``events_fired`` match the
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
        "_cfg",
        "_cache",
        "_gen",
        "stats",
        "_on_finish",
        "_sc",
        "finished",
        "_flc_hit",
        "_n_procs",
        "_issue_t0",
        "_stall_addr",
        "_stall_t0",
        "_flwb",
        "_flc_sets",
        "_flc_nsets",
        "_bsize",
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
        self._cfg = cfg
        self._cache = cache
        self._gen: Iterator[Op] = iter(workload)
        self.stats = stats
        self._on_finish = on_finish
        self._sc = cfg.consistency is Consistency.SC
        self.finished = False
        self._flc_hit = cfg.timing.flc_hit
        self._n_procs = cfg.n_procs
        # issue-loop aliases into the cache's FLC/FLWB internals: the
        # FLC-hit probe and the FLWB-room check are replicated here so
        # the two overwhelmingly common outcomes (read hits, buffered
        # writes) cost no call at all
        self._flwb = cache.flwb
        self._flc_sets = cache.flc._sets
        self._flc_nsets = cache.flc._n_sets
        self._bsize = cache._bsize
        #: issue time of the one outstanding blocking op.  The
        #: processor blocks on at most one reference at a time, so the
        #: completion callbacks can be allocation-free bound methods
        #: reading this attribute instead of per-reference closures.
        self._issue_t0 = 0
        #: the write (and its issue time) stalled on a full FLWB.
        self._stall_addr = -1
        self._stall_t0 = 0

    def start(self) -> None:
        """Begin issuing references at time 0."""
        self._sim.at(self._sim.now, self._next)

    # ------------------------------------------------------------------

    def _next(self) -> None:
        sim = self._sim
        heap = sim._heap
        horizon = sim._until
        gen = self._gen
        stats = self.stats
        cache = self._cache
        flwb = self._flwb
        flc_sets = self._flc_sets
        flc_nsets = self._flc_nsets
        bsize = self._bsize
        flc_hit = self._flc_hit
        sc = self._sc
        t = sim.now
        credits = 0
        # per-op counters are accumulated in locals and flushed to the
        # stats object once per loop exit (every return path below)
        busy = 0
        nreads = 0
        nwrites = 0
        while True:
            try:
                op = next(gen)
            except StopIteration:
                break
            kind = op[0]
            if kind == "think":
                busy += op[1]
                t2 = t + op[1]
            elif kind == "read":
                nreads += 1
                block = op[1] // bsize
                if flc_sets.get(block % flc_nsets) == block:
                    # FLC hit, probed without leaving the loop (the
                    # first check ``read_at`` would make, so skipping
                    # the call is exact)
                    busy += flc_hit
                    t2 = t + flc_hit
                else:
                    t2 = cache.read_at(op[1], t, self._read_done)
                    if t2 < 0:
                        # miss: the controller owns the continuation
                        self._issue_t0 = t
                        stats.busy += busy
                        stats.shared_reads += nreads
                        stats.shared_writes += nwrites
                        if credits:
                            sim._events_fired += credits
                        return
                    # store-to-load forward (dt == flc_hit) or an
                    # inline SLC hit (dt > flc_hit): same split as
                    # ``_read_done``
                    dt = t2 - t
                    if dt > flc_hit:
                        busy += flc_hit
                        stats.read_stall += dt - flc_hit
                    else:
                        busy += dt
            elif kind == "write":
                nwrites += 1
                if sc:
                    self._issue_t0 = t
                    stats.busy += busy
                    stats.shared_reads += nreads
                    stats.shared_writes += nwrites
                    cache.write_blocking_at(op[1], self._write_done, t)
                    if credits:
                        sim._events_fired += credits
                    return
                if flwb._writes < flwb.capacity:
                    cache.buffer_write_at(op[1], t)
                    busy += flc_hit
                    t2 = t + flc_hit
                else:
                    self._stall_addr = op[1]
                    self._stall_t0 = t
                    stats.busy += busy
                    stats.shared_reads += nreads
                    stats.shared_writes += nwrites
                    cache.when_write_space(self._write_retry)
                    if credits:
                        sim._events_fired += credits
                    return
            elif kind == "acquire":
                stats.acquires += 1
                self._issue_t0 = t
                stats.busy += busy
                stats.shared_reads += nreads
                stats.shared_writes += nwrites
                cache.acquire_at(op[1], self._acquire_done, t)
                if credits:
                    sim._events_fired += credits
                return
            elif kind == "release":
                stats.releases += 1
                if sc:
                    self._issue_t0 = t
                    stats.busy += busy
                    stats.shared_reads += nreads
                    stats.shared_writes += nwrites
                    cache.release_at(op[1], t, self._release_done)
                    if credits:
                        sim._events_fired += credits
                    return
                # RCpc: the release is inserted and the processor
                # continues after the FLC write-through
                cache.release_at(op[1], t)
                busy += flc_hit
                t2 = t + flc_hit
            elif kind == "barrier":
                stats.barriers += 1
                self._issue_t0 = t
                stats.busy += busy
                stats.shared_reads += nreads
                stats.shared_writes += nwrites
                cache.barrier_at(op[1], self._n_procs, self._barrier_done, t)
                if credits:
                    sim._events_fired += credits
                return
            else:
                raise SimulationError(f"unknown workload op {op!r}")
            if (heap and heap[0][0] <= t2) or t2 > horizon:
                # a queued event (or the run horizon) falls inside the
                # window: fall back to a real completion event at t2
                stats.busy += busy
                stats.shared_reads += nreads
                stats.shared_writes += nwrites
                if credits:
                    sim._events_fired += credits
                heappush(heap, (t2, sim._seq, self._next, ()))
                sim._seq += 1
                return
            t = t2
            credits += 1
        # stream exhausted at boundary ``t``; the crossing rule
        # guarantees nothing fires before ``t``, so finishing inline
        # is indistinguishable from the elided completion event.
        self.finished = True
        stats.finish_time = t
        stats.busy += busy
        stats.shared_reads += nreads
        stats.shared_writes += nwrites
        if credits:
            sim._events_fired += credits
        self._on_finish(self.node_id)

    # -- completion callbacks ------------------------------------------
    #
    # Bound methods, shared across references: the blocking processor
    # has one outstanding op, whose issue time sits in ``_issue_t0``.

    def _read_done(self) -> None:
        dt = self._sim.now - self._issue_t0
        hit_cost = self._flc_hit
        stats = self.stats
        if dt > hit_cost:
            stats.busy += hit_cost
            stats.read_stall += dt - hit_cost
        else:
            stats.busy += dt
        self._next()

    def _write_retry(self) -> None:
        if not self._cache.can_buffer_write():
            self._cache.when_write_space(self._write_retry)
            return
        # ``_stall_t0`` was recorded once, when the stall began, so the
        # stall is charged exactly once however many wakeups it took
        self.stats.write_stall += self._sim.now - self._stall_t0
        self._cache.buffer_write(self._stall_addr)
        self.stats.busy += self._flc_hit
        self._sim.after(self._flc_hit, self._next)

    def _write_done(self) -> None:
        dt = self._sim.now - self._issue_t0
        hit_cost = self._flc_hit
        stats = self.stats
        if dt > hit_cost:
            stats.busy += hit_cost
            stats.write_stall += dt - hit_cost
        else:
            stats.busy += dt
        self._next()

    def _acquire_done(self) -> None:
        dt = self._sim.now - self._issue_t0
        hit_cost = self._flc_hit
        stats = self.stats
        if dt > hit_cost:
            stats.busy += hit_cost
            stats.acquire_stall += dt - hit_cost
        else:
            stats.busy += dt
        self._next()

    def _release_done(self) -> None:
        dt = self._sim.now - self._issue_t0
        hit_cost = self._flc_hit
        stats = self.stats
        if dt > hit_cost:
            stats.busy += hit_cost
            stats.release_stall += dt - hit_cost
        else:
            stats.busy += dt
        self._next()

    def _barrier_done(self) -> None:
        # barrier wait is accounted as acquire stall, as in the paper's
        # busy / read / acquire decomposition under RC
        self.stats.acquire_stall += self._sim.now - self._issue_t0
        self._next()
