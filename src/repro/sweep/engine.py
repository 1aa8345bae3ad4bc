"""Batch execution of :class:`RunSpec` iterables.

The engine takes any iterable of specs, serves what it can from the
:class:`~repro.sweep.cache.ResultCache`, executes the rest through an
executor chosen by ``max_workers`` and returns results **in spec
order** regardless of completion order:

* ``serial``  -- ``max_workers=1`` (the default): an in-process loop
  with zero overhead,
* ``process`` -- ``max_workers>1``: fan the uncached cells out across
  the persistent warm worker pool (:mod:`repro.sweep.pool`: started
  once -- forked from a single-threaded parent on Linux, spawned
  otherwise -- reused across ``run()`` calls and service jobs,
  crash-respawned).

Uncached cells are dispatched most-expensive-first through a
cost-ordered queue (:func:`repro.sweep.pool.estimate_cost`), so
straggler cells start immediately and cheap cells backfill idle
workers; completion order never leaks into the API -- results always
come back in spec order.

Worker processes never see the cache: they receive spec dicts, return
``MachineStats.to_dict()`` payloads, and the parent writes the cache
and fires the progress hook.  Routing *both* the live and the cached
path through the same versioned dict round-trip guarantees that a
process-pool sweep, a serial sweep and a cache replay produce
bitwise-identical statistics.

One engine may be shared by many threads (the HTTP service submits
every client sweep through a single engine).  ``run`` is thread-safe,
and concurrent submissions of the *same* spec hash are **deduplicated
in flight**: the first submitter simulates, everyone else blocks on
the shared execution and receives the identical result (reported with
progress source ``"dedup"`` and counted in :attr:`SweepEngine.deduped`).
Duplicates inside one batch collapse the same way.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.stats.counters import MachineStats
from repro.sweep.cache import HOT_ENTRIES, ResultCache
from repro.sweep.spec import RunResult, RunSpec

# The simulator and the worker pool are imported where they run: a
# fully cached sweep loads neither, and the pool loads the simulator
# before it forks its first worker (see _load_simulator there).
if TYPE_CHECKING:
    from repro.sweep.pool import PersistentPool


@dataclass(frozen=True)
class ProgressEvent:
    """One completed cell, reported through the progress hook."""

    index: int          #: position of the spec in the submitted batch
    total: int          #: batch size
    spec: RunSpec
    wall_time: float    #: seconds spent simulating (0.0 for cache hits)
    source: str         #: "sim", "cache" or "dedup" (shared execution)
    #: the completed result; lets per-call hooks (the service's job
    #: tracker) stream results without waiting for the whole batch.
    result: RunResult | None = None


ProgressHook = Callable[[ProgressEvent], None]


def workload_key(spec: RunSpec) -> str:
    """Content hash of the workload identity a spec describes.

    Two specs that differ only in protocol, consistency, directory or
    network timing share the same reference streams, so the key covers
    exactly the fields the workload generators consume.
    """
    ident = {
        "app": spec.app,
        "n_procs": spec.n_procs,
        "scale": spec.scale,
        "seed": spec.seed,
        "workload_kw": {k: v for k, v in spec.workload_kw},
        "block_size": spec.cache.block_size,
        "page_size": spec.cache.page_size,
    }
    payload = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _build_streams(spec: RunSpec, cfg):
    from repro.workloads import build_workload

    return build_workload(
        spec.app, cfg, scale=spec.scale, seed=spec.seed,
        **dict(spec.workload_kw),
    )


class WarmContext:
    """Per-process memo of built workload streams.

    A long-lived worker (the persistent sweep pool, the HTTP service's
    serial engine) executes many specs that share a workload: the same
    :func:`workload_key` under different protocols, directories or
    timings.  Building the reference streams is deterministic in that
    identity, and the simulator only *iterates* the frozen ``Op``
    lists, so one built workload can safely drive any number of runs.
    The memo is LRU-bounded, since 256-proc stream lists are large.
    """

    def __init__(self, max_workloads: int = 8) -> None:
        self.max_workloads = max_workloads
        self._workloads: OrderedDict[str, Any] = OrderedDict()
        self.workload_hits = 0
        self.workload_misses = 0

    def streams_for(self, spec: RunSpec, cfg):
        """The spec's workload streams, built at most once per identity."""
        key = workload_key(spec)
        streams = self._workloads.get(key)
        if streams is not None:
            self.workload_hits += 1
            self._workloads.move_to_end(key)
            return streams
        self.workload_misses += 1
        streams = _build_streams(spec, cfg)
        self._workloads[key] = streams
        while len(self._workloads) > self.max_workloads:
            self._workloads.popitem(last=False)
        return streams

    def counters(self) -> dict:
        """JSON-able hit/miss digest (folded into pool statistics)."""
        return {
            "workload_hits": self.workload_hits,
            "workload_misses": self.workload_misses,
        }


def execute_spec(spec: RunSpec, warm: WarmContext | None = None) -> MachineStats:
    """Simulate one cell in-process (no cache, no pooling).

    Builds the spec's machine and workload and runs the event-driven
    :class:`~repro.system.System` to completion.  ``warm`` optionally
    memoizes the built workload streams across calls; the result is
    identical with or without it.
    """
    from repro.system import System

    cfg = spec.to_config()
    streams = (warm.streams_for(spec, cfg) if warm is not None
               else _build_streams(spec, cfg))
    return System(cfg).run(streams)


class _InFlight:
    """One spec hash currently executing; waiters block on the event."""

    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: RunResult | None = None


class SweepEngine:
    """Executes spec batches with memoization and progress reporting."""

    def __init__(
        self,
        max_workers: int = 1,
        cache: ResultCache | None = None,
        on_result: ProgressHook | None = None,
    ) -> None:
        self.max_workers = max_workers
        self.cache = cache
        self.on_result = on_result
        #: cells handed to run() over the engine's lifetime.
        self.cells = 0
        #: cells that had to be simulated (cache misses / cache off).
        self.misses = 0
        #: cells served from the cache without simulating.
        self.hits = 0
        #: cells that piggybacked on an identical in-flight execution.
        self.deduped = 0
        #: wall-clock seconds spent inside run().
        self.wall_time = 0.0
        self._lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}
        #: warm state of the in-process (serial) execution path.
        self._warm = WarmContext()
        self._pool: PersistentPool | None = None
        self._last_run_stats: dict | None = None

    @property
    def executor(self) -> str:
        """``"process"`` when more than one worker may run, else ``"serial"``."""
        return "process" if self.max_workers > 1 else "serial"

    @property
    def invalidated(self) -> int:
        """Stale cache entries dropped on this engine's behalf."""
        return self.cache.invalidated if self.cache is not None else 0

    def _get_pool(self) -> PersistentPool:
        """The persistent pool (the process-wide shared one)."""
        if self._pool is None or self._pool.closed:
            from repro.sweep.pool import shared_pool

            self._pool = shared_pool(self.max_workers)
        return self._pool

    def close(self, shutdown_pool: bool = False) -> None:
        """Optionally stop the worker pool.

        The persistent pool is shared process-wide, so it is left
        running by default (an ``atexit`` hook stops it at interpreter
        exit); pass ``shutdown_pool=True`` to stop it now -- the
        service does on shutdown.
        """
        if shutdown_pool and self._pool is not None:
            self._pool.close()

    # ------------------------------------------------------------------

    def run(
        self,
        specs: Iterable[RunSpec],
        on_result: ProgressHook | None = None,
    ) -> list[RunResult]:
        """Execute every spec; results come back in submission order.

        ``on_result`` is a per-call completion callback fired *in
        addition to* the engine-wide hook -- the service uses it to
        track each client sweep separately on one shared engine.
        """
        batch = list(specs)
        total = len(batch)
        t0 = time.perf_counter()
        hot_before = self.cache.hot_hits if self.cache is not None else 0
        with self._lock:
            self.cells += total
        results: list[RunResult | None] = [None] * total
        pending: list[int] = []                      # this call simulates
        waiting: list[tuple[int, _InFlight]] = []    # someone else is
        owned: dict[str, _InFlight] = {}             # keys this call claimed
        cached_here = 0
        for i, spec in enumerate(batch):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
                cached_here += 1
                with self._lock:
                    self.hits += 1
                self._report(i, total, spec, 0.0, "cache", on_result, cached)
                continue
            key = spec.key()
            with self._lock:
                mine = owned.get(key)
                theirs = self._inflight.get(key)
                if mine is not None:
                    waiting.append((i, mine))
                    self.deduped += 1
                elif theirs is not None:
                    waiting.append((i, theirs))
                    self.deduped += 1
                else:
                    entry = _InFlight()
                    self._inflight[key] = entry
                    owned[key] = entry
                    pending.append(i)
        with self._lock:
            self.misses += len(pending)
        pool_starts = {"forked": 0, "spawned": 0}
        try:
            if pending:
                if self.executor == "process" and len(pending) > 1:
                    pool_starts = self._run_pooled(batch, pending, results,
                                                   on_result)
                else:
                    self._run_serial(batch, pending, results, on_result)
        finally:
            # release any claims left unresolved by an executor failure
            # so waiters (here and in other threads) never deadlock.
            with self._lock:
                for key, entry in owned.items():
                    if not entry.event.is_set():
                        self._inflight.pop(key, None)
                        entry.event.set()
        for i, entry in waiting:
            results[i] = self._await_shared(batch[i], entry)
            self._report(i, total, batch[i], 0.0, "dedup", on_result,
                         results[i])
        wall = time.perf_counter() - t0
        self.wall_time += wall
        self._last_run_stats = {
            "cells": total,
            "sim": len(pending),
            "cache": cached_here,
            "dedup": len(waiting),
            "hot_hits": (self.cache.hot_hits - hot_before
                         if self.cache is not None else 0),
            "wall_time": wall,
            "sim_time": sum(
                results[i].wall_time for i in pending
                if results[i] is not None
            ),
            "executor": ("serial" if self.executor == "serial"
                         or len(pending) <= 1 else "process"),
            "pool": pool_starts,
        }
        return results  # type: ignore[return-value]  # every slot filled

    def last_run_stats(self) -> dict | None:
        """Aggregate timing/source digest of the most recent :meth:`run`.

        ``wall_time`` is the batch's end-to-end wall clock;
        ``sim_time`` is the *sum* of per-cell simulation seconds (the
        work the pool performed, possibly in parallel); ``sim`` /
        ``cache`` / ``dedup`` count where each cell came from and
        ``hot_hits`` how many cache hits never touched disk.  ``pool``
        counts the worker starts the run caused by method, ``{"forked":
        n, "spawned": m}``; it reads zeros for a serial run or a warm
        pool.  On an engine shared by concurrent threads the digest
        describes whichever run finished last, and ``pool`` counts
        every start the shared pool made during it.
        """
        return self._last_run_stats

    def run_one(self, spec: RunSpec) -> RunResult:
        """Single-cell convenience wrapper over :meth:`run`."""
        return self.run([spec])[0]

    def _await_shared(self, spec: RunSpec, entry: _InFlight) -> RunResult:
        """Block on another submission's execution of an equal spec.

        If the owner failed (event set, no result), fall back to
        executing the cell ourselves -- correctness over economy in a
        path that only a crashed sibling submission can reach.
        """
        entry.event.wait()
        if entry.result is not None:
            return entry.result
        cached = self.cache.get(spec) if self.cache is not None else None
        if cached is not None:
            return cached
        t0 = time.perf_counter()
        stats = execute_spec(spec, self._warm)
        result = RunResult(
            spec=spec, stats=stats,
            wall_time=time.perf_counter() - t0, from_cache=False,
        )
        if self.cache is not None:
            self.cache.put(result)
        return result

    # ------------------------------------------------------------------

    def _run_serial(self, batch, pending, results, hook) -> None:
        for i in pending:
            t0 = time.perf_counter()
            stats = execute_spec(batch[i], self._warm)
            self._complete(
                batch, i, len(batch), stats, time.perf_counter() - t0,
                results, hook,
            )

    def _cost_order(self, batch, pending: Sequence[int]) -> list[int]:
        """Pending indices, most expensive estimated cell first.

        Ties keep submission order, so scheduling is deterministic for
        a given batch; results are reassembled by index either way.
        """
        from repro.sweep.pool import estimate_cost

        return sorted(pending, key=lambda i: (-estimate_cost(batch[i]), i))

    def _run_pooled(self, batch, pending, results, hook) -> dict:
        """Dynamic scheduling on the long-lived shared worker pool.

        The whole pending batch goes to the pool in one call, which
        starts any workers it needs on this thread.  Returns the worker
        starts made meanwhile, by method.
        """
        from concurrent.futures import as_completed

        from repro.sweep.pool import estimate_cost

        pool = self._get_pool()
        pool.resize(self.max_workers)
        forked, spawned = pool.forked, pool.spawned
        order = self._cost_order(batch, pending)
        futures = dict(zip(pool.submit_batch(
            [(batch[i].to_dict(), estimate_cost(batch[i])) for i in order]
        ), order))
        for fut in as_completed(futures):
            payload = fut.result()  # worker errors surface here
            i = futures[fut]
            stats = MachineStats.from_dict(payload["stats"])
            self._complete(
                batch, i, len(batch), stats, payload["wall_time"],
                results, hook,
            )
        return {"forked": pool.forked - forked,
                "spawned": pool.spawned - spawned}

    def _complete(self, batch, i, total, stats, wall_time, results,
                  hook) -> None:
        result = RunResult(
            spec=batch[i], stats=stats, wall_time=wall_time, from_cache=False
        )
        if self.cache is not None:
            self.cache.put(result)
        results[i] = result
        # publish to in-flight waiters before reporting progress, so a
        # hook that inspects the engine sees the claim already released.
        key = batch[i].key()
        with self._lock:
            entry = self._inflight.pop(key, None)
        if entry is not None:
            entry.result = result
            entry.event.set()
        self._report(i, total, batch[i], wall_time, "sim", hook, result)

    def _report(self, i, total, spec, wall_time, source, hook=None,
                result=None) -> None:
        if self.on_result is None and hook is None:
            return
        event = ProgressEvent(
            index=i, total=total, spec=spec,
            wall_time=wall_time, source=source, result=result,
        )
        if self.on_result is not None:
            self.on_result(event)
        if hook is not None:
            hook(event)

    # ------------------------------------------------------------------

    def summary(self) -> str:
        """One-line counter digest, e.g. for CLI stderr reporting."""
        return (
            f"[sweep] cells={self.cells} hits={self.hits} "
            f"misses={self.misses} deduped={self.deduped} "
            f"invalidated={self.invalidated} "
            f"executor={self.executor} wall={self.wall_time:.2f}s"
        )

    def counters(self) -> dict:
        """JSON-able counter digest (served at /v1/health)."""
        return {
            "cells": self.cells,
            "hits": self.hits,
            "misses": self.misses,
            "deduped": self.deduped,
            "invalidated": self.invalidated,
            "in_flight": len(self._inflight),
            "executor": self.executor,
            "wall_time": self.wall_time,
        }


def run_spec(spec: RunSpec, engine: SweepEngine | None = None) -> RunResult:
    """Execute one spec (through ``engine`` when given)."""
    if engine is None:
        engine = SweepEngine()
    return engine.run_one(spec)


def sweep(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    on_result: ProgressHook | None = None,
) -> list[RunResult]:
    """One-call sweep: build an engine, run the batch, return results."""
    engine = SweepEngine(
        max_workers=jobs,
        cache=(ResultCache(cache_dir, hot_entries=HOT_ENTRIES)
               if cache_dir is not None else None),
        on_result=on_result,
    )
    return engine.run(specs)
