"""Tests for the process-wide worker pool and cost-aware scheduling.

Covers the ordering-invariance guarantee (serial and pooled sweeps of
one shuffled batch produce bitwise-identical cache bytes), the two
worker start methods (fork from a single-threaded parent, spawn
otherwise) in fresh interpreters, orphaned workers exiting with a
killed parent under both, the crash policy (a worker killed mid-sweep
breaks that run, and the next run completes on a fresh executor),
the cost model, and the engine's run digest.
"""

import contextlib
import errno
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import pool_batch
import pool_hold
import repro
from conftest import canonical_cache_entry
from pool_batch import MATRIX
from repro.sweep import (
    ResultCache,
    RunSpec,
    SweepEngine,
    estimate_cost,
    shutdown_pool,
)
from repro.sweep import pool as pool_mod
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
    """Map of relative path -> an entry's header, spec line and counter
    block under a cache root.

    ``wall_time`` is the one legitimately machine-dependent header
    field; it is pinned to 0 before comparison so the assertion is
    exactly "same files, same keys, same spec and stats bytes".
    """
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = canonical_cache_entry(path)
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
            ("serial", {}),
            ("persistent", dict(max_workers=2)),
        ):
            root = tmp_path / name
            engine = SweepEngine(cache=ResultCache(root), **engine_kw)
            results = engine.run(batch)
            assert [r.spec for r in results] == batch
            baselines[name] = _cache_bytes(root)
        assert baselines["serial"] == baselines["persistent"]

    def test_persistent_results_match_serial_stats(self):
        serial = SweepEngine().run(MATRIX)
        pooled = SweepEngine(max_workers=2).run(MATRIX)
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


def _check_orphans_exit(tmp_path, *flags) -> None:
    """Run ``pool_batch.py`` until it SIGKILLs itself, then wait for
    both of its orphaned workers to exit."""
    proc = _pool_batch(tmp_path / "cache", *flags)
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


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


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
        """A forked worker must not outlive a SIGKILLed parent, although
        every worker holds the call queue's write end, so the queue
        never reads EOF: the worker's parent watch ends it."""
        _check_orphans_exit(tmp_path, "--kill-self")

    @linux_only
    def test_spawned_workers_exit_after_parent_is_killed(self, tmp_path):
        _check_orphans_exit(tmp_path, "--kill-self", "--extra-thread")


class TestPersistentPool:
    """The process-wide executor: one per process, reused by every
    engine, rebuilt only to grow or after a crash."""

    def test_workers_survive_across_runs(self):
        engine = SweepEngine(max_workers=2)
        engine.run(MATRIX[:4])
        pids_first = _worker_pids()
        assert pids_first, "first run must have started workers"
        engine.run(MATRIX[4:])
        assert _worker_pids() == pids_first, \
            "second run must reuse the same worker processes"

    def test_results_come_back_by_index(self):
        # cheapest first, so the pool runs them in the reverse order
        batch = sorted(MATRIX, key=estimate_cost)
        pooled = SweepEngine(max_workers=2).run(batch)
        assert [r.spec for r in pooled] == batch
        serial = SweepEngine().run(batch)
        assert [r.stats.to_dict() for r in pooled] \
            == [r.stats.to_dict() for r in serial]

    def test_warm_counters_accumulate(self):
        # same workload identity under two protocols: the second cell
        # must reuse the worker's memoized streams.
        shutdown_pool()
        a = RunSpec.for_run("water", protocol="BASIC", n_procs=2, scale=0.2)
        b = RunSpec.for_run("water", protocol="P+CW", n_procs=2, scale=0.2)
        for spec in (a, b):
            (fut,), _ = pool_mod.submit(1, [spec.to_dict()])
            fut.result(timeout=120)
        ex = pool_mod.executor(1)
        assert ex.submit(pool_hold.warm_counters).result(timeout=120) \
            == (1, 1)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_worker_crash_breaks_the_run_and_the_next_run_completes(
            self, tmp_path, monkeypatch):
        """Killing the workers mid-sweep makes ``run`` raise, and the
        next ``run`` completes on a fresh executor with correct results.

        Every cell runs through :func:`pool_hold.held_run_cell`, which
        blocks on a test-owned FIFO.  A second thread waits until a
        worker has the FIFO open, so a cell is provably in flight, then
        kills the workers while it keeps the FIFO's write end open: no
        cell can finish before the kill, whatever the timing.  All of
        them, because a spawning executor watches only the workers it
        had when its manager thread last waited, and the one started by
        a later ``submit`` may be missed until a result arrives.
        """
        specs = MATRIX[:2]
        expected = []
        for spec in specs:
            cfg = spec.to_config()
            expected.append(System(cfg).run(build_workload(
                spec.app, cfg, scale=spec.scale, seed=spec.seed,
            )).to_dict())
        path = tmp_path / "hold.fifo"
        os.mkfifo(path)
        monkeypatch.setenv(pool_hold.HOLD_FIFO_ENV, str(path))
        monkeypatch.setattr(pool_mod, "run_cell", pool_hold.held_run_cell)
        shutdown_pool()
        writer: list[int] = []

        def kill_the_workers() -> None:
            writer.append(_open_fifo_writer(path))
            for pid in _worker_pids():
                os.kill(pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_the_workers)
        killer.start()
        engine = SweepEngine(max_workers=2)
        try:
            with pytest.raises(BrokenProcessPool):
                engine.run(specs)
        finally:
            killer.join()
            for fd in writer:
                os.close(fd)
        monkeypatch.undo()

        results = engine.run(specs)
        assert sum(engine.last_run_stats()["pool"].values()) == 2, \
            "the next run must start a fresh executor's workers"
        assert [r.stats.to_dict() for r in results] == expected

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_late_spawned_worker_crash_breaks_the_run(
            self, tmp_path, monkeypatch):
        """Killing only the worker that the batch's second ``submit``
        spawned, while the other one holds a cell on the FIFO, makes
        ``run`` raise at once, without waiting for the held cell.

        The killer thread keeps the parent multi-threaded, so the pool
        spawns.  The executor wakes its manager thread before it starts
        a worker, so the manager can be waiting on the first worker
        alone when the second starts; the second start is delayed to
        make sure it is.  ``pool.submit`` wakes the manager once more
        so it watches both.  An alarm fails the test if ``run`` blocks,
        after releasing the held cell so the executor can shut down.
        """
        path = tmp_path / "hold.fifo"
        os.mkfifo(path)
        monkeypatch.setenv(pool_hold.HOLD_FIFO_ENV, str(path))
        monkeypatch.setattr(pool_mod, "run_cell", pool_hold.held_run_cell)
        start_worker = ProcessPoolExecutor._spawn_process

        def start_the_second_worker_late(ex) -> None:
            if ex._processes:
                time.sleep(0.25)  # the manager thread goes back to waiting
            start_worker(ex)

        monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process",
                            start_the_second_worker_late)
        shutdown_pool()
        writer: list[int] = []

        def kill_the_late_worker() -> None:
            _wait_for(lambda: pool_mod._executor is not None
                      and len(pool_mod._executor._processes) == 2)
            late = list(pool_mod._executor._processes)[1]  # start order
            writer.append(_open_fifo_writer(path))
            os.kill(late, signal.SIGKILL)

        def release() -> None:
            killer.join()
            while writer:
                os.close(writer.pop())

        def blocked(signum, frame):  # not a BrokenProcessPool
            release()
            pytest.fail("run waited for the held cell")

        killer = threading.Thread(target=kill_the_late_worker)
        killer.start()
        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                SweepEngine(max_workers=2).run(MATRIX[:2])
            assert pool_mod._method == "spawn"
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            release()
            shutdown_pool()

    def test_worker_error_does_not_kill_pool(self):
        bad = dict(MATRIX[0].to_dict())
        bad["app"] = "no-such-app"
        (fut,), _ = pool_mod.submit(1, [bad])
        with pytest.raises(ValueError, match="no-such-app"):
            fut.result(timeout=120)
        # the executor still serves good specs
        (ok,), _ = pool_mod.submit(1, [MATRIX[0].to_dict()])
        assert ok.result(timeout=120)["stats"]

    def test_close_is_idempotent(self):
        pool_mod.submit(1, [MATRIX[0].to_dict()])[0][0].result(timeout=120)
        shutdown_pool()
        shutdown_pool()
        assert pool_mod._executor is None
        assert not _worker_pids()

    def test_shared_pool_grows_and_is_reused(self):
        shutdown_pool()
        a = pool_mod.executor(1)
        b = pool_mod.executor(3)
        assert a is not b and b._max_workers == 3
        assert pool_mod.executor(2) is b, "a smaller request reuses it"
        with pytest.raises(RuntimeError, match="after shutdown"):
            a.submit(int)

    def test_unknown_pool_mode_rejected(self):
        # there is one pool; the engine no longer takes a pool mode
        with pytest.raises(TypeError):
            SweepEngine(pool="forkbomb")


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
        shutdown_pool()
        engine = SweepEngine(max_workers=2)
        engine.run(MATRIX[:4])                       # cold pool
        cold = engine.last_run_stats()
        assert cold["executor"] == "process"
        method = "forked" if pool_mod._method == "fork" else "spawned"
        assert cold["pool"] == {"forked": 0, "spawned": 0, method: 2}

        engine.run(MATRIX[4:])                       # warm pool
        assert engine.last_run_stats()["pool"] == {"forked": 0,
                                                   "spawned": 0}
