"""Tests for the persistent worker pool and cost-aware scheduling.

Covers the ordering-invariance guarantee (serial and persistent-pool
sweeps of one shuffled batch produce bitwise-identical cache bytes),
crash recovery (a worker killed mid-sweep is respawned and the sweep
still completes correctly), the cost model, and the engine's run
digest.
"""

import errno
import os
import random
import signal
import time

import pytest

from repro.sweep import (
    PersistentPool,
    ResultCache,
    RunSpec,
    SweepEngine,
    estimate_cost,
    shared_pool,
)
from repro.sim.backend import TRACE_DIR_ENV, ReplayBackend
from repro.sweep.pool import (
    BACKEND_COST_WEIGHT,
    PoolClosedError,
    ensure_importable_by_workers,
)
from repro.trace.refstream import ReferenceRecorder, TraceStore

#: a small mixed matrix: two protocols, two machine sizes, two seeds.
MATRIX = [
    RunSpec.for_run("water", protocol=proto, scale=0.2, n_procs=np, seed=seed)
    for proto in ("BASIC", "P+CW")
    for np in (2, 4)
    for seed in (1994, 7)
]


def _wait_for(predicate, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.01)


def _open_fifo_writer(path) -> int:
    """Open ``path`` (a FIFO) for writing once a reader has it open.

    A non-blocking writer open fails with ENXIO while no process is
    reading, so success proves a worker is blocked on the FIFO.
    """
    fd = None

    def reader_present() -> bool:
        nonlocal fd
        try:
            fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
            return False
        return True

    _wait_for(reader_present)
    return fd


def _cache_bytes(root) -> dict:
    """Map of relative path -> canonical file bytes under a cache root.

    ``wall_time`` is the one legitimately machine-dependent envelope
    field; it is pinned to 0 before comparison so the assertion is
    exactly "same files, same keys, same spec and stats bytes".
    """
    import json

    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                payload = json.loads(fh.read())
            payload["wall_time"] = 0
            out[os.path.relpath(path, root)] = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode()
    return out


class TestCostModel:
    def test_scales_with_procs_and_scale(self):
        small = RunSpec.for_run("water", n_procs=4, scale=0.1)
        big = RunSpec.for_run("water", n_procs=64, scale=0.1)
        long = RunSpec.for_run("water", n_procs=4, scale=1.0)
        assert estimate_cost(big) > estimate_cost(small)
        assert estimate_cost(long) > estimate_cost(small)

    def test_replay_tier_cheaper_than_event(self):
        event = RunSpec.for_run("water", n_procs=4, scale=0.2)
        replay = RunSpec.for_run("water", n_procs=4, scale=0.2,
                                 backend="replay")
        assert estimate_cost(replay) < estimate_cost(event)
        assert BACKEND_COST_WEIGHT["replay"] < BACKEND_COST_WEIGHT["event"]

    def test_engine_dispatch_order_is_cost_descending(self):
        engine = SweepEngine()
        order = engine._cost_order(MATRIX, range(len(MATRIX)))
        costs = [estimate_cost(MATRIX[i]) for i in order]
        assert costs == sorted(costs, reverse=True)
        assert sorted(order) == list(range(len(MATRIX)))


class TestOrderingInvariance:
    def test_all_executors_write_identical_cache_bytes(self, tmp_path):
        """Serial and persistent-pool sweeps of one shuffled batch must
        leave bitwise-identical caches behind."""
        batch = MATRIX[:]
        random.Random(42).shuffle(batch)
        baselines = {}
        for name, engine_kw in (
            ("serial", dict(executor="serial")),
            ("persistent", dict(executor="process", max_workers=2)),
        ):
            root = tmp_path / name
            engine = SweepEngine(cache=ResultCache(root), **engine_kw)
            results = engine.run(batch)
            assert [r.spec for r in results] == batch
            baselines[name] = _cache_bytes(root)
        assert baselines["serial"] == baselines["persistent"]

    def test_persistent_results_match_serial_stats(self):
        serial = SweepEngine().run(MATRIX)
        pooled = SweepEngine(executor="process", max_workers=2).run(MATRIX)
        for s, p in zip(serial, pooled):
            assert s.stats == p.stats


class TestPersistentPool:
    def test_workers_survive_across_runs(self):
        engine = SweepEngine(executor="process", max_workers=2)
        engine.run(MATRIX[:4])
        pool = engine._get_pool()
        pids_first = set(pool.worker_pids())
        assert pids_first, "first run must have spawned workers"
        engine.run(MATRIX[4:])
        assert set(pool.worker_pids()) == pids_first, \
            "second run must reuse the same worker processes"

    def test_demand_driven_spawn(self):
        pool = PersistentPool(max_workers=8)
        try:
            fut = pool.submit(MATRIX[0].to_dict(),
                              cost=estimate_cost(MATRIX[0]))
            fut.result(timeout=120)
            assert pool.n_workers < 8, \
                "a one-cell batch must not spawn the full pool"
        finally:
            pool.close()

    def test_warm_counters_accumulate(self):
        pool = PersistentPool(max_workers=1)
        try:
            # same workload identity under two protocols: the second
            # cell must reuse the worker's memoized streams.
            a = RunSpec.for_run("water", protocol="BASIC", n_procs=2,
                                scale=0.2)
            b = RunSpec.for_run("water", protocol="P+CW", n_procs=2,
                                scale=0.2)
            pool.submit(a.to_dict()).result(timeout=120)
            pool.submit(b.to_dict()).result(timeout=120)
            warm = pool.counters()["warm"]
            assert warm["workload_hits"] >= 1
        finally:
            pool.close()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_worker_crash_respawns_and_completes(self, tmp_path,
                                                 monkeypatch):
        """Killing a worker mid-task must respawn it and still produce
        the correct, complete result.

        The task is a replay-tier spec whose trace file is a FIFO, so
        the worker blocks reading it until the test writes the trace.
        The kill lands while the task is provably in flight, and the
        task can only complete on the respawned worker.
        """
        spec = RunSpec.for_run("water", n_procs=2, scale=0.2,
                               backend="replay")
        expected = ReplayBackend(trace_dir=tmp_path / "ref").execute(spec)
        trace_bytes = ReferenceRecorder().record(spec).to_bytes()
        trace_dir = tmp_path / "fifo"
        trace_dir.mkdir()
        path = TraceStore(trace_dir).path_for(spec)
        os.mkfifo(path)
        monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))  # spawn env

        pool = PersistentPool(max_workers=1)
        try:
            fut = pool.submit(spec.to_dict())
            # a reader on the FIFO proves the worker is mid-task
            stale_fd = _open_fifo_writer(path)
            try:
                # swap a fresh FIFO in under the same name: only the
                # respawned worker can open it, whatever the timing
                fresh = tmp_path / "fresh.fifo"
                os.mkfifo(fresh)
                os.replace(fresh, path)
                victims = pool.worker_pids()
                assert len(victims) == 1
                os.kill(victims[0], signal.SIGKILL)
            finally:
                os.close(stale_fd)
            fd = _open_fifo_writer(path)    # the respawned worker reads
            try:
                assert not fut.done(), "the killed task cannot finish"
                assert pool.counters()["respawns"] == 1
                os.set_blocking(fd, True)
                with os.fdopen(fd, "wb", closefd=False) as fh:
                    fh.write(trace_bytes)
            finally:
                os.close(fd)
            payload = fut.result(timeout=120)
            assert pool.counters()["respawns"] == 1
            assert pool.worker_pids() != victims
            # the respawned worker's result is still correct
            assert payload["stats"] == expected.to_dict()
        finally:
            pool.close()

    def test_worker_error_does_not_kill_pool(self):
        pool = PersistentPool(max_workers=1)
        try:
            bad = dict(MATRIX[0].to_dict())
            bad["app"] = "no-such-app"
            with pytest.raises(RuntimeError):
                pool.submit(bad).result(timeout=120)
            # pool still serves good specs on the same worker
            ok = pool.submit(MATRIX[0].to_dict()).result(timeout=120)
            assert ok["stats"]
            assert pool.counters()["failed"] == 1
        finally:
            pool.close()

    def test_submit_after_close_raises(self):
        pool = PersistentPool(max_workers=1)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.submit(MATRIX[0].to_dict())

    def test_close_is_idempotent(self):
        pool = PersistentPool(max_workers=1)
        pool.submit(MATRIX[0].to_dict()).result(timeout=120)
        pool.close()
        pool.close()
        assert pool.n_workers == 0

    def test_shared_pool_grows_and_is_reused(self):
        a = shared_pool(1)
        b = shared_pool(3)
        assert a is b
        assert b.max_workers >= 3

    def test_unknown_pool_mode_rejected(self):
        # there is one pool; the engine no longer takes a pool mode
        with pytest.raises(TypeError):
            SweepEngine(pool="forkbomb")


class TestImportablePathFix:
    def test_pythonpath_not_duplicated(self, monkeypatch):
        import repro
        from repro.sweep import pool as pool_mod

        pkg_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        monkeypatch.setattr(pool_mod, "_importable_ensured", False)
        monkeypatch.setenv("PYTHONPATH", pkg_root)
        ensure_importable_by_workers()
        ensure_importable_by_workers()
        entries = os.environ["PYTHONPATH"].split(os.pathsep)
        assert entries.count(pkg_root) == 1


class TestLastRunStats:
    def test_digest_reports_sources_and_times(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        assert engine.last_run_stats() is None
        t0 = time.perf_counter()
        engine.run(MATRIX[:2])
        wall = time.perf_counter() - t0
        digest = engine.last_run_stats()
        assert digest["cells"] == 2
        assert digest["sim"] == 2 and digest["cache"] == 0
        assert digest["dedup"] == 0
        assert 0 < digest["wall_time"] <= wall
        assert digest["sim_time"] > 0
        assert digest["executor"] == "serial"

        engine.run(MATRIX[:2])
        digest = engine.last_run_stats()
        assert digest["sim"] == 0 and digest["cache"] == 2
        assert digest["sim_time"] == 0
