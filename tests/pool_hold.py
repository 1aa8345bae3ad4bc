"""Worker tasks for the pool's crash and warm-state tests.

The crash test replaces :func:`repro.sweep.pool.run_cell`, the task a
worker runs for each cell, with :func:`held_run_cell`.  A held task
first blocks on the FIFO named by ``$REPRO_TEST_HOLD_FIFO`` until the
test opens that FIFO for writing and closes it again, and only then
simulates its cell exactly as the real task does.  The test therefore
decides when a cell may finish, with no timing involved.  A forked
worker has this module already, imported by the test; a spawned one
imports it through the ``sys.path`` multiprocessing hands it.  This
module is not a test file.
"""

from __future__ import annotations

import os

from repro.sweep import pool
from repro.sweep.pool import run_cell

#: environment variable naming the FIFO a held task waits on.
HOLD_FIFO_ENV = "REPRO_TEST_HOLD_FIFO"


def held_run_cell(spec_dict: dict) -> dict:
    """Wait for the test's release, then run the real task."""
    with open(os.environ[HOLD_FIFO_ENV], "rb") as fifo:
        fifo.read()  # returns at EOF: the test closed its write end
    return run_cell(spec_dict)


def warm_counters() -> tuple[int, int]:
    """The calling worker's workload memo hits and misses."""
    return pool._warm.workload_hits, pool._warm.workload_misses
