"""The sweep engine's worker processes: one process-wide
``concurrent.futures.ProcessPoolExecutor``.

* **Built once, reused.**  :func:`executor` builds the executor on the
  first pooled batch and keeps it across ``SweepEngine.run()`` calls
  and engines.  A later batch that asks for more workers shuts the old
  executor down, waiting for its threads, and builds a larger one.
* **Forked when that is safe, spawned otherwise.**  On Linux, with the
  calling thread the only thread of the process, the executor forks
  its workers, after :func:`_load_simulator` has imported the
  simulator, so every worker inherits it.  Anywhere else -- macOS and
  Windows, or a caller with a second thread alive -- it spawns them.
  A forking executor starts all its workers in its first ``submit``,
  before its manager thread exists.
* **Worker set-up.**  :func:`_init_worker` clears inherited profile and
  trace hooks, builds the worker's one
  :class:`~repro.sweep.engine.WarmContext` and starts a thread that
  ends the worker once its parent is gone.  Every worker holds a copy
  of the call queue's write end, so the queue never reads EOF and a
  stock worker would outlive a SIGKILLed parent.
* **Crash policy.**  A worker that dies breaks the executor, whichever
  ``submit`` of the batch started it: the run
  raises ``BrokenProcessPool``, the engine discards the executor
  through :func:`shutdown_pool`, and the next run builds a fresh one.
  Nothing is retried.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import get_context
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sweep.engine import WarmContext

#: seconds between a worker's checks that its parent is alive.
PARENT_POLL_S = 0.5

_executor: ProcessPoolExecutor | None = None
_max_workers = 0
_method = ""
#: the worker's memo of built workloads (set by :func:`_init_worker`).
_warm: WarmContext | None = None


def _load_simulator() -> None:
    """Import what a worker's tasks run: the engine and the simulator.

    The engine imports the simulator on its first simulation, so a
    parent that has served only cache hits has not loaded it.  The pool
    calls this before it builds an executor, whose forked workers then
    inherit the modules, and a spawned worker calls it in its
    initializer; either way no task pays for the import.
    """
    import repro.sweep.engine  # noqa: F401
    import repro.system  # noqa: F401
    from repro.core.extensions import registered_extensions
    from repro.workloads import WORKLOADS  # noqa: F401  (every generator)

    for info in registered_extensions():
        info.build  # noqa: B018  (imports the implementation)


def _fork_is_safe() -> bool:
    """Whether workers may be forked now: Linux, and the calling
    thread is the only thread in the process.

    Forking a multi-threaded process can copy a lock another thread
    holds (CPython 3.12 warns on it), so any second thread -- a
    Python one, including an executor's manager thread or one the
    caller started, or a native one, which only ``/proc`` shows --
    means spawn.
    """
    if not sys.platform.startswith("linux") or threading.active_count() != 1:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _watch_parent(parent: int) -> None:
    """End this worker once ``parent`` is no longer its parent."""
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _init_worker(parent: int) -> None:
    """Executor initializer: run unprofiled, warm, and watch the parent.

    Profile and trace hooks (``sys.setprofile``, ``sys.settrace``, and
    the ``sys.monitoring`` tools that cProfile uses from CPython 3.12)
    are cleared, so a forked worker of a profiled parent runs at full
    speed, as a spawned one does.
    """
    global _warm
    sys.setprofile(None)
    sys.settrace(None)
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        for tool in range(6):  # every sys.monitoring tool id
            if monitoring.get_tool(tool) is not None:
                monitoring.set_events(tool, 0)
                monitoring.free_tool_id(tool)
    _load_simulator()
    from repro.sweep.engine import WarmContext

    _warm = WarmContext()
    threading.Thread(target=_watch_parent, args=(parent,),
                     name="repro-parent-watch", daemon=True).start()


def run_cell(spec_dict: dict) -> dict:
    """Worker task: simulate one spec dict.

    Returns ``{"stats": stats.to_columns(), "wall_time": float}``: the
    head and counter block that the result cache stores.  An error
    raised by the simulation surfaces on the task's future.
    """
    from repro.sweep.engine import execute_spec
    from repro.sweep.spec import RunSpec

    spec = RunSpec.from_dict(spec_dict)
    t0 = time.perf_counter()
    stats = execute_spec(spec, _warm)
    return {"stats": stats.to_columns(),
            "wall_time": time.perf_counter() - t0}


def executor(max_workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, with at least ``max_workers`` workers."""
    global _executor, _max_workers, _method
    if _executor is None or _max_workers < max_workers:
        shutdown_pool()
        _load_simulator()
        _method = "fork" if _fork_is_safe() else "spawn"
        _executor = ProcessPoolExecutor(
            max_workers, mp_context=get_context(_method),
            initializer=_init_worker, initargs=(os.getpid(),),
        )
        _max_workers = max_workers
    return _executor


def submit(max_workers: int,
           spec_dicts: list[dict]) -> tuple[list[Future], dict]:
    """Queue one :func:`run_cell` task per spec dict, in list order.

    Returns the futures and the worker starts the submissions caused,
    ``{"forked": n, "spawned": m}``.  An executor never replaces a
    worker, so every start happens in a ``submit``: all of a forking
    executor's workers in its first, and under spawn one per
    ``submit`` that finds no idle worker.
    """
    ex = executor(max_workers)
    before = len(ex._processes)
    futures = [ex.submit(run_cell, d) for d in spec_dicts]
    started = len(ex._processes) - before
    if started:
        # ``submit`` wakes the manager thread before it starts a worker,
        # so the manager may already be waiting on a sentinel list that
        # lacks the worker a later ``submit`` started, and miss its
        # death.  One more wake-up makes it wait on every worker.
        with ex._shutdown_lock:
            ex._executor_manager_thread_wakeup.wakeup()
    return futures, {"forked": started if _method == "fork" else 0,
                     "spawned": started if _method == "spawn" else 0}


def shutdown_pool() -> None:
    """Shut the process-wide executor down, if there is one, and wait
    for its workers and threads; queued cells are cancelled."""
    global _executor, _max_workers
    ex, _executor, _max_workers = _executor, None, 0
    if ex is not None:
        ex.shutdown(wait=True, cancel_futures=True)
