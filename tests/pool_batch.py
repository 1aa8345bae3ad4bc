"""Child program for the pool's start-method and orphaned-worker tests.

    python -W error::DeprecationWarning tests/pool_batch.py CACHE_DIR \
        [--extra-thread] [--kill-self]

Runs :data:`MATRIX` once on a fresh two-worker pool, writing the
results into a result cache at ``CACHE_DIR``, and prints one JSON line:
the run's worker starts by method (``last_run_stats()["pool"]``) and
the pids of the pool's workers.  ``--extra-thread`` keeps a second
thread alive for the whole run, so the pool must spawn its workers.
``--kill-self`` then SIGKILLs this process, with no clean-up of any
kind, and leaves the workers orphaned.  This module is not a test
file; the tests run it in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import threading

from repro.sweep import ResultCache, RunSpec, SweepEngine

#: a small mixed matrix: two protocols, two machine sizes, two seeds.
MATRIX = [
    RunSpec.for_run("water", protocol=proto, scale=0.2, n_procs=np, seed=seed)
    for proto in ("BASIC", "P+CW")
    for np in (2, 4)
    for seed in (1994, 7)
]


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("cache_dir")
    p.add_argument("--extra-thread", action="store_true")
    p.add_argument("--kill-self", action="store_true")
    args = p.parse_args(argv)

    release = threading.Event()
    if args.extra_thread:
        threading.Thread(target=release.wait, daemon=True).start()
    engine = SweepEngine(max_workers=2, cache=ResultCache(args.cache_dir))
    engine.run(MATRIX)
    release.set()
    print(json.dumps({
        "pool": engine.last_run_stats()["pool"],
        "pids": [p.pid for p in multiprocessing.active_children()],
    }), flush=True)
    if args.kill_self:
        os.kill(os.getpid(), signal.SIGKILL)


if __name__ == "__main__":
    main()
