"""Tests for the persistent worker pool and cost-aware scheduling.

Covers the ordering-invariance guarantee (serial and persistent-pool
sweeps of one shuffled batch produce bitwise-identical cache bytes),
the two worker start methods (fork from a single-threaded parent,
spawn otherwise) in fresh interpreters, orphaned workers exiting with
a killed parent, crash recovery (a worker killed mid-sweep is
respawned and the sweep still completes correctly), the cost model,
and the engine's run digest.
"""

import contextlib
import errno
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import pool_batch
import pool_hold
import repro
from pool_batch import MATRIX
from repro.sweep import (
    PersistentPool,
    ResultCache,
    RunSpec,
    SweepEngine,
    estimate_cost,
    shared_pool,
    shutdown_shared_pool,
)
from repro.sweep import pool as pool_mod
from repro.sweep.pool import PoolClosedError, ensure_importable_by_workers
from repro.system import System
from repro.workloads import build_workload

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="workers fork only on Linux; the exit check reads /proc",
)


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

    def test_cost_is_procs_times_scale(self):
        specs = [
            RunSpec.for_run("water", protocol=proto, n_procs=np, scale=s)
            for proto in ("BASIC", "P+CW")
            for np in (2, 4, 16)
            for s in (0.1, 0.5, 1.0)
        ]
        for spec in specs:
            assert estimate_cost(spec) == spec.n_procs * spec.scale
        # the protocol never changes a cell's rank
        ranked = sorted(specs, key=estimate_cost)
        assert [estimate_cost(s) for s in ranked] == sorted(
            s.n_procs * s.scale for s in specs
        )

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


#: CPython 3.12+ warns when a process with a second thread alive forks,
#: but drops that warning silently when a filter makes it an error.  So
#: the child runs with every DeprecationWarning an error except that
#: one, which it prints, and the test reads its stderr.
WARNING_FLAGS = ("-W", "error::DeprecationWarning",
                 "-W", "always:This process:DeprecationWarning")
FORK_WARNING = "is multi-threaded, use of fork()"


def _pool_batch(cache_dir, *flags, stderr=None) -> subprocess.Popen:
    """Start ``pool_batch.py`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, *WARNING_FLAGS,
         os.path.abspath(pool_batch.__file__), str(cache_dir), *flags],
        stdout=subprocess.PIPE, stderr=stderr, env=env, text=True,
    )


def _pool_batch_report(cache_dir, *flags) -> dict:
    proc = _pool_batch(cache_dir, *flags, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert FORK_WARNING not in err
    return json.loads(out)


def _exited(pid: int) -> bool:
    """Whether ``pid`` is gone or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestStartMethods:
    """Each test runs its batch in a fresh interpreter, so the parent's
    thread count is the test's choice, in the full suite or alone."""

    @pytest.mark.parametrize("flags, starts", [
        pytest.param((), {"forked": 2, "spawned": 0}, marks=linux_only,
                     id="single-thread-forks"),
        pytest.param(("--extra-thread",), {"forked": 0, "spawned": 2},
                     id="second-thread-spawns"),
    ])
    def test_start_method_and_cache_bytes(self, tmp_path, flags, starts):
        """Every worker of the batch starts by the expected method, and
        the pooled batch writes the serial executor's cache bytes."""
        serial = tmp_path / "serial"
        SweepEngine(cache=ResultCache(serial)).run(MATRIX)
        report = _pool_batch_report(tmp_path / "pooled", *flags)
        assert report["pool"] == starts
        assert _cache_bytes(tmp_path / "pooled") == _cache_bytes(serial)

    @linux_only
    def test_workers_exit_after_parent_is_killed(self, tmp_path):
        """A worker must not outlive a SIGKILLed parent: its pipe reads
        EOF only once no process holds a copy of the parent's end."""
        proc = _pool_batch(tmp_path / "cache", "--kill-self")
        pids: list[int] = []
        try:
            pids = json.loads(proc.stdout.readline())["pids"]
            assert proc.wait(timeout=300) == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 60.0
            while not all(_exited(pid) for pid in pids):
                assert time.monotonic() < deadline, \
                    f"orphaned workers still alive: {pids}"
                time.sleep(0.05)
        finally:
            for pid in pids:
                if not _exited(pid):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
            proc.stdout.close()


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

        Workers start through :func:`pool_hold.held_worker_main`, which
        blocks on a test-owned FIFO before serving.  ``submit`` starts
        the held worker and hands it the task before it returns, so the
        kill lands while the task is provably in flight, and the task
        can only complete on the respawned worker once the test
        releases it.  The respawn is made by the dispatcher thread, so
        it is always spawned, whichever way the first worker started.
        """
        spec = RunSpec.for_run("water", n_procs=2, scale=0.2)
        cfg = spec.to_config()
        expected = System(cfg).run(build_workload(
            spec.app, cfg, scale=spec.scale, seed=spec.seed,
        ))
        path = tmp_path / "hold.fifo"
        os.mkfifo(path)
        # the spawned worker imports the helper and finds the FIFO
        # through the environment it inherits
        helper_dir = os.path.dirname(os.path.abspath(pool_hold.__file__))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (helper_dir, os.environ.get("PYTHONPATH")) if p
        ))
        monkeypatch.setenv(pool_hold.HOLD_FIFO_ENV, str(path))
        monkeypatch.setattr(pool_mod, "_worker_main",
                            pool_hold.held_worker_main)

        pool = PersistentPool(max_workers=1)
        try:
            fut = pool.submit(spec.to_dict())
            # a reader on the FIFO proves the worker has started, and
            # the pool assigned it the task when it started it
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
            fd = _open_fifo_writer(path)    # the respawned worker waits
            try:
                assert not fut.done(), "the killed task cannot finish"
                assert pool.counters()["respawns"] == 1
            finally:
                os.close(fd)                # release the respawned worker
            payload = fut.result(timeout=120)
            counters = pool.counters()
            assert counters["respawns"] == 1
            assert counters["spawned"] >= 1, "respawns are spawned"
            assert counters["forked"] + counters["spawned"] == 2
            assert pool.worker_pids() != victims
            # the respawned worker's result equals a direct System run
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
        assert digest["pool"] == {"forked": 0, "spawned": 0}

    def test_pool_entry_counts_worker_starts(self):
        shutdown_shared_pool()
        engine = SweepEngine(executor="process", max_workers=2)
        engine.run(MATRIX[:4])                       # cold pool
        cold = engine.last_run_stats()
        assert cold["executor"] == "process"
        assert sum(cold["pool"].values()) == 2
        counters = engine._get_pool().counters()
        assert cold["pool"] == {"forked": counters["forked"],
                                "spawned": counters["spawned"]}

        engine.run(MATRIX[4:])                       # warm pool
        assert engine.last_run_stats()["pool"] == {"forked": 0,
                                                   "spawned": 0}
