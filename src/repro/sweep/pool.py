"""Persistent warm worker pool for sweep execution.

A :class:`PersistentPool` owns a set of long-lived worker processes and
a cost-ordered shared task queue.  It differs from a per-``run()``
``ProcessPoolExecutor`` in exactly the ways that matter for sweep
*throughput*:

* **Started once, reused forever.**  Workers are started on the first
  submission and survive across ``SweepEngine.run()`` calls and
  engines, so the start cost is paid once per process lifetime
  instead of once per sweep.
* **Forked when that is safe, spawned otherwise.**  On Linux, a worker
  started by the only thread of the process is forked from the
  parent (milliseconds), which imports the simulator first, so the
  worker inherits it.  Anywhere else -- macOS and Windows, a
  submitting thread with a second thread alive, crash respawns made
  by the dispatcher thread -- it is spawned as a fresh interpreter that
  imports ``repro`` itself (hundreds of milliseconds).  A forked worker
  closes every pool pipe end it inherited and drops inherited profile
  and trace hooks before it serves a task, so it behaves like a
  spawned one: it exits when the parent dies and runs unprofiled.
* **Workers start on the submitting thread.**  :meth:`PersistentPool.
  submit_batch` starts the workers a batch needs, then queues the batch,
  hands idle workers their first tasks and starts the dispatcher
  thread.  The dispatcher only assigns tasks as workers free up and
  replaces crashed workers.  It resolves futures without callbacks, so
  the engine and the cache only ever run on the submitting thread.
* **Warm state.**  Each worker keeps a
  :class:`~repro.sweep.engine.WarmContext`: built workload streams are
  memoized by workload identity, so repeated cells (the same
  app/scale/seed under different protocols) skip the rebuild entirely.
* **Cost-aware dynamic scheduling.**  Tasks are dispatched to idle
  workers one at a time, most expensive first (see
  :func:`estimate_cost`), so a 256-proc straggler starts immediately
  and small cells backfill the remaining workers.  Submission order
  never affects results -- the engine reassembles them by index.
* **Health-checked.**  A worker that dies mid-task (OOM kill, crash)
  is detected through its pipe, respawned, and its task resubmitted
  (bounded retries); the sweep completes with correct results.

Lifecycle: pools shut down cleanly via :meth:`close` (idempotent) and
an ``atexit`` hook.  Most callers should use :func:`shared_pool`,
which maintains one process-wide pool that grows to the largest
requested worker count -- one driver process or one test session then
holds one set of workers, however many engines it builds.
"""

from __future__ import annotations

import atexit
import heapq
import itertools
import os
import sys
import threading
import time
from concurrent.futures import Future
from multiprocessing import Pipe, get_context
from multiprocessing.connection import Connection, wait as conn_wait
from multiprocessing.process import BaseProcess
from typing import Any, Optional, Sequence

#: how many times a task is resubmitted after crashing its worker
#: before the failure is surfaced to the caller.
MAX_TASK_RETRIES = 2


def estimate_cost(spec: Any) -> float:
    """Estimated relative wall cost of one spec.

    ``n_procs x scale``: processor count multiplies both the machine
    size and (through weak scaling) the reference count, and ``scale``
    is proportional to per-processor workload length.  This is a
    scheduling heuristic, not a prediction -- it only has to start
    stragglers first.
    """
    n_procs = getattr(spec, "n_procs", 1) or 1
    scale = getattr(spec, "scale", 1.0) or 1.0
    return float(n_procs) * float(scale)


_importable_ensured = False


def ensure_importable_by_workers() -> None:
    """Make sure spawned interpreters can ``import repro`` (once).

    Spawned workers inherit the environment, not ``sys.path``; if the
    package was made importable by a path hack rather than an install,
    prepend its root to ``PYTHONPATH`` before spawning a worker (a
    forked worker has the parent's ``sys.path`` and needs nothing).
    Computed once per process and guarded against duplicate entries.
    """
    global _importable_ensured
    if _importable_ensured:
        return
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            pkg_root + (os.pathsep + existing if existing else "")
        )
    _importable_ensured = True


def _load_simulator() -> None:
    """Import what a worker's tasks run: the engine and the simulator.

    The engine imports the simulator on its first simulation, so a
    parent that has served only cache hits has not loaded it.  The pool
    calls this before it forks a worker, which then inherits the
    modules, and a spawned worker calls it before it reads a task;
    either way no task pays for the import.
    """
    import repro.sweep.engine  # noqa: F401
    import repro.system  # noqa: F401
    import repro.workloads  # noqa: F401


def _fork_is_safe() -> bool:
    """Whether a worker may be forked now: Linux, and the calling
    thread is the only thread in the process.

    Forking a multi-threaded process can copy a lock another thread
    holds (CPython 3.12 warns on it), so any second thread -- a
    Python one, including this pool's dispatcher or one the caller
    started, or a native one, which only ``/proc`` shows -- means
    spawn.
    """
    if not sys.platform.startswith("linux") or threading.active_count() != 1:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


class WorkerCrashError(RuntimeError):
    """A task repeatedly crashed the worker executing it."""


class PoolClosedError(RuntimeError):
    """The pool was closed while the task was pending."""


def _worker_main(conn: Connection) -> None:
    """Worker loop: execute tasks until the sentinel arrives.

    Spawned workers enter here directly, forked ones through
    :func:`_forked_worker_main`.  Each message is ``{"id": int, "spec": <RunSpec dict>}``; the reply
    carries the versioned stats payload (or an error string) plus the
    worker's warm-state counters.  Workload streams, expensive to build
    and deterministic in the spec, are memoized in a per-process
    :class:`~repro.sweep.engine.WarmContext`.
    """
    _load_simulator()
    from repro.sweep.engine import WarmContext, execute_spec
    from repro.sweep.spec import RunSpec

    warm = WarmContext()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        reply: dict = {"id": msg["id"]}
        try:
            spec = RunSpec.from_dict(msg["spec"])
            t0 = time.perf_counter()
            stats = execute_spec(spec, warm)
            reply["stats"] = stats.to_dict()
            reply["wall_time"] = time.perf_counter() - t0
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            reply["error"] = f"{type(exc).__name__}: {exc}"
        reply["warm"] = warm.counters()
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


def _forked_worker_main(conn: Connection, inherited: list) -> None:
    """Forked worker entry: drop what the fork copied, then serve.

    ``inherited`` holds every pool pipe end the parent had open at the
    fork: this worker's own parent end, its siblings' parent ends and
    the wake pipe.  While a copy of a parent end is open, the pipe
    never reads EOF, so a worker holding one would outlive a killed
    parent.  Profile and trace hooks (``sys.setprofile``, and
    ``sys.monitoring`` tools, which cProfile uses from CPython 3.12)
    are cleared so a worker of a profiled parent runs at full speed,
    as a spawned one does.
    """
    for end in inherited:
        end.close()
    sys.setprofile(None)
    sys.settrace(None)
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        for tool in range(6):  # every sys.monitoring tool id
            if monitoring.get_tool(tool) is not None:
                monitoring.set_events(tool, 0)
                monitoring.free_tool_id(tool)
    _worker_main(conn)


class _Task:
    """One submitted spec: payload, scheduling cost, completion future."""

    __slots__ = ("id", "spec_dict", "cost", "future", "attempts")

    def __init__(self, task_id: int, spec_dict: dict, cost: float) -> None:
        self.id = task_id
        self.spec_dict = spec_dict
        self.cost = cost
        self.future: Future = Future()
        self.attempts = 0


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "conn", "task")

    def __init__(self, process, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None


class PersistentPool:
    """Long-lived worker pool with a cost-ordered shared task queue."""

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._heap: list[tuple[float, int, _Task]] = []
        self._seq = itertools.count()
        self._tasks_by_id: dict[int, _Task] = {}
        self._wake_r, self._wake_w = Pipe(duplex=False)
        self._dispatcher: threading.Thread | None = None
        self._closed = False
        #: lifetime counters (reported via :meth:`counters`); every
        #: worker start, respawns included, counts in exactly one of
        #: ``forked`` and ``spawned``.
        self.forked = 0
        self.spawned = 0
        self.respawns = 0
        self.completed = 0
        self.failed = 0
        #: latest warm-state digest per worker pid.
        self._warm: dict[int, dict] = {}
        self._atexit = atexit.register(self.close)

    # -- lifecycle ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def n_workers(self) -> int:
        """Workers currently alive (0 until the first submission)."""
        with self._lock:
            return len(self._workers)

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (test/diagnostic hook)."""
        with self._lock:
            return [w.process.pid for w in self._workers
                    if w.process.pid is not None]

    def _start_worker_locked(self) -> None:
        """Start one worker: forked if that is safe now, else spawned."""
        parent_conn, child_conn = Pipe(duplex=True)
        name = f"repro-sweep-worker-{self.forked + self.spawned}"
        process: BaseProcess
        if _fork_is_safe():
            _load_simulator()
            inherited = [w.conn for w in self._workers]
            inherited += [parent_conn, self._wake_r, self._wake_w]
            process = get_context("fork").Process(
                target=_forked_worker_main, args=(child_conn, inherited),
                name=name, daemon=True,
            )
            self.forked += 1
        else:
            ensure_importable_by_workers()
            process = get_context("spawn").Process(
                target=_worker_main, args=(child_conn,),
                name=name, daemon=True,
            )
            self.spawned += 1
        process.start()
        child_conn.close()
        self._workers.append(_Worker(process, parent_conn))

    def resize(self, max_workers: int) -> None:
        """Grow the pool's worker cap (never shrinks a running pool).

        New workers start with the next submission.
        """
        with self._lock:
            if max_workers > self.max_workers:
                self.max_workers = max_workers

    def close(self) -> None:
        """Shut down workers and fail any pending tasks.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake()
        dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join(timeout=10)
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
            try:
                worker.conn.close()
            except OSError:
                pass
        try:
            atexit.unregister(self._atexit)
        except Exception:
            pass

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------

    def submit(self, spec_dict: dict, cost: float = 0.0) -> Future:
        """Queue one spec dict: :meth:`submit_batch` of one item."""
        return self.submit_batch([(spec_dict, cost)])[0]

    def submit_batch(
        self, items: Sequence[tuple[dict, float]],
    ) -> list[Future]:
        """Queue ``(spec dict, cost)`` pairs; one future per item.

        Each payload is ``{"stats": <MachineStats dict>, "wall_time":
        float}``; a worker-side execution error surfaces as a
        ``RuntimeError`` on the future, a repeated worker crash as
        :class:`WorkerCrashError`.

        Workers start here, on the calling thread, and on demand: the
        pool grows to ``min(max_workers, busy + queued)`` workers, so a
        two-cell batch on a 16-way pool starts two processes, not 16.
        The first call starts its workers before it starts the
        dispatcher thread, so the first batch of a single-threaded
        process forks every worker it needs.
        """
        with self._lock:
            if self._closed:
                raise PoolClosedError("pool is closed")
            tasks = [_Task(next(self._seq), spec_dict, cost)
                     for spec_dict, cost in items]
            busy = sum(1 for w in self._workers if w.task is not None)
            wanted = min(self.max_workers,
                         busy + len(self._heap) + len(tasks))
            for _ in range(wanted - len(self._workers)):
                self._start_worker_locked()
            for task in tasks:
                self._tasks_by_id[task.id] = task
                heapq.heappush(self._heap, (-task.cost, task.id, task))
            self._assign_locked()
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, name="repro-pool-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()
        self._wake()
        return [task.future for task in tasks]

    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"x")
        except (BrokenPipeError, OSError):
            pass

    # -- dispatcher thread ----------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    self._fail_pending_locked()
                    return
                self._assign_locked()
                busy = [w.conn for w in self._workers if w.task is not None]
            ready = conn_wait([*busy, self._wake_r], timeout=1.0)
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        while self._wake_r.poll():
                            self._wake_r.recv_bytes()
                    except (EOFError, OSError):
                        pass
                    continue
                self._handle_ready(conn)
            self._reap_dead()

    def _assign_locked(self) -> None:
        """Hand the most expensive pending tasks to idle workers."""
        while self._heap:
            worker = next(
                (w for w in self._workers if w.task is None), None
            )
            if worker is None:
                break
            _, _, task = heapq.heappop(self._heap)
            worker.task = task
            try:
                worker.conn.send({"id": task.id, "spec": task.spec_dict})
            except (BrokenPipeError, OSError):
                # dead worker: put the task back, reap below
                worker.task = None
                heapq.heappush(self._heap, (-task.cost, task.id, task))
                break

    def _handle_ready(self, conn: Connection) -> None:
        with self._lock:
            worker = next(
                (w for w in self._workers if w.conn is conn), None
            )
        if worker is None:
            return
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            self._on_crash(worker)
            return
        with self._lock:
            task = self._tasks_by_id.pop(reply.get("id"), None)
            worker.task = None
            pid = worker.process.pid
            if pid is not None and "warm" in reply:
                self._warm[pid] = reply["warm"]
        if task is None:
            return
        if "error" in reply:
            with self._lock:
                self.failed += 1
            task.future.set_exception(
                RuntimeError(f"worker execution failed: {reply['error']}")
            )
        else:
            with self._lock:
                self.completed += 1
            task.future.set_result(reply)

    def _on_crash(self, worker: _Worker) -> None:
        """A worker died: respawn it and resubmit its task (bounded)."""
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            task = worker.task
            worker.task = None
            failed_task = None
            if task is not None:
                task.attempts += 1
                if task.attempts > MAX_TASK_RETRIES:
                    self._tasks_by_id.pop(task.id, None)
                    self.failed += 1
                    failed_task = task
                else:
                    heapq.heappush(self._heap, (-task.cost, task.id, task))
            if not self._closed:
                self.respawns += 1
                self._start_worker_locked()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1)
        if failed_task is not None:
            failed_task.future.set_exception(WorkerCrashError(
                f"spec crashed its worker {failed_task.attempts} times "
                f"(last pid {worker.process.pid})"
            ))

    def _reap_dead(self) -> None:
        """Catch workers that died without a readable EOF this cycle."""
        with self._lock:
            dead = [w for w in self._workers if not w.process.is_alive()]
        for worker in dead:
            self._on_crash(worker)

    def _fail_pending_locked(self) -> None:
        pending = [task for _, _, task in self._heap]
        pending += [w.task for w in self._workers if w.task is not None]
        self._heap.clear()
        self._tasks_by_id.clear()
        for worker in self._workers:
            worker.task = None
        for task in pending:
            if not task.future.done():
                task.future.set_exception(PoolClosedError("pool closed"))

    # -- introspection --------------------------------------------------

    def counters(self) -> dict:
        """JSON-able digest of the pool's workers, tasks and warm state.

        ``forked`` and ``spawned`` count worker starts by method over
        the pool's lifetime; every start, crash respawns included,
        counts in exactly one of them.
        """
        with self._lock:
            warm_totals = {"workload_hits": 0, "workload_misses": 0}
            for digest in self._warm.values():
                for key in warm_totals:
                    warm_totals[key] += digest.get(key, 0)
            return {
                "workers": len(self._workers),
                "max_workers": self.max_workers,
                "forked": self.forked,
                "spawned": self.spawned,
                "respawns": self.respawns,
                "completed": self.completed,
                "failed": self.failed,
                "queued": len(self._heap),
                "warm": warm_totals,
            }


# -- the process-wide shared pool ---------------------------------------

_shared_pool: PersistentPool | None = None
_shared_lock = threading.Lock()


def shared_pool(max_workers: int | None = None) -> PersistentPool:
    """The process-wide pool, created on first use.

    Grows (never shrinks) to the largest worker count any caller has
    requested, so every engine in one process -- every driver, every
    test -- shares one set of warm workers.
    """
    global _shared_pool
    with _shared_lock:
        if _shared_pool is None or _shared_pool.closed:
            _shared_pool = PersistentPool(max_workers)
        elif max_workers is not None:
            _shared_pool.resize(max_workers)
        return _shared_pool


def shutdown_shared_pool() -> None:
    """Close the process-wide pool (tests; atexit covers normal exit)."""
    global _shared_pool
    with _shared_lock:
        pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.close()
