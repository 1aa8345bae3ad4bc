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
  otherwise -- reused across ``run()`` calls and engines,
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

Equal specs inside one batch are simulated once: later copies receive
the first copy's result (reported with progress source ``"dedup"``
and counted in :attr:`SweepEngine.deduped`).

An engine and its cache are used from one thread, the one that calls
``run``; the pool resolves its futures without callbacks, so no engine
or cache code ever runs on the pool's dispatcher thread.
"""

from __future__ import annotations

import hashlib
import json
import os
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
    source: str         #: "sim", "cache" or "dedup" (an equal spec's run)


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

    A long-lived worker (a persistent pool worker, an engine's serial
    path) executes many specs that share a workload: the same
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


class SweepEngine:
    """Executes spec batches with memoization and progress reporting."""

    def __init__(
        self,
        max_workers: int = 1,
        cache: ResultCache | None = None,
        on_result: ProgressHook | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(
                f"SweepEngine max_workers must be >= 1, got {max_workers!r}"
            )
        self.max_workers = max_workers
        self.cache = cache
        self.on_result = on_result
        #: cells handed to run() over the engine's lifetime.
        self.cells = 0
        #: cells that had to be simulated (cache misses / cache off).
        self.misses = 0
        #: cells served from the cache without simulating.
        self.hits = 0
        #: cells that took the result of an equal spec in their batch.
        self.deduped = 0
        #: wall-clock seconds spent inside run().
        self.wall_time = 0.0
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

    # ------------------------------------------------------------------

    def run(self, specs: Iterable[RunSpec]) -> list[RunResult]:
        """Execute every spec; results come back in submission order."""
        batch = list(specs)
        total = len(batch)
        t0 = time.perf_counter()
        cache = self.cache
        hot_before = cache.hot_hits if cache is not None else 0
        self.cells += total
        results: list[RunResult | None] = [None] * total
        pending: list[int] = []                 # cells this call simulates
        first: dict[str, int] = {}              # key -> its pending index
        dups: list[tuple[int, int]] = []        # (cell, equal pending cell)
        for i, spec in enumerate(batch):
            cached = cache.get(spec) if cache is not None else None
            if cached is not None:
                results[i] = cached
                self._report(i, total, spec, 0.0, "cache")
                continue
            j = first.setdefault(spec.key(), i)
            if j == i:
                pending.append(i)
            else:
                dups.append((i, j))
        cached_here = total - len(pending) - len(dups)
        self.hits += cached_here
        self.misses += len(pending)
        self.deduped += len(dups)
        pool_starts = {"forked": 0, "spawned": 0}
        if pending:
            if self.executor == "process" and len(pending) > 1:
                pool_starts = self._run_pooled(batch, pending, results)
            else:
                self._run_serial(batch, pending, results)
        for i, j in dups:
            results[i] = results[j]
            self._report(i, total, batch[i], 0.0, "dedup")
        wall = time.perf_counter() - t0
        self.wall_time += wall
        self._last_run_stats = {
            "cells": total,
            "sim": len(pending),
            "cache": cached_here,
            "dedup": len(dups),
            "hot_hits": (cache.hot_hits - hot_before
                         if cache is not None else 0),
            "wall_time": wall,
            "sim_time": sum(results[i].wall_time  # type: ignore[union-attr]
                            for i in pending),
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
        pool.
        """
        return self._last_run_stats

    def run_one(self, spec: RunSpec) -> RunResult:
        """Single-cell convenience wrapper over :meth:`run`."""
        return self.run([spec])[0]

    # ------------------------------------------------------------------

    def _run_serial(self, batch, pending, results) -> None:
        for i in pending:
            t0 = time.perf_counter()
            stats = execute_spec(batch[i], self._warm)
            self._complete(batch, i, stats, time.perf_counter() - t0,
                           results)

    def _cost_order(self, batch, pending: Sequence[int]) -> list[int]:
        """Pending indices, most expensive estimated cell first.

        Ties keep submission order, so scheduling is deterministic for
        a given batch; results are reassembled by index either way.
        """
        from repro.sweep.pool import estimate_cost

        return sorted(pending, key=lambda i: (-estimate_cost(batch[i]), i))

    def _run_pooled(self, batch, pending, results) -> dict:
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
            self._complete(batch, i, stats, payload["wall_time"], results)
        return {"forked": pool.forked - forked,
                "spawned": pool.spawned - spawned}

    def _complete(self, batch, i, stats, wall_time, results) -> None:
        result = RunResult(
            spec=batch[i], stats=stats, wall_time=wall_time, from_cache=False
        )
        if self.cache is not None:
            self.cache.put(result)
        results[i] = result
        self._report(i, len(batch), batch[i], wall_time, "sim")

    def _report(self, i, total, spec, wall_time, source) -> None:
        if self.on_result is not None:
            self.on_result(ProgressEvent(
                index=i, total=total, spec=spec,
                wall_time=wall_time, source=source,
            ))

    # ------------------------------------------------------------------

    def summary(self) -> str:
        """One-line counter digest, e.g. for CLI stderr reporting."""
        return (
            f"[sweep] cells={self.cells} hits={self.hits} "
            f"misses={self.misses} deduped={self.deduped} "
            f"invalidated={self.invalidated} "
            f"executor={self.executor} wall={self.wall_time:.2f}s"
        )


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
