"""Worker loop for the pool's crash-recovery test.

The test replaces :func:`repro.sweep.pool._worker_main`, the loop that
forked and spawned workers both run, with :func:`held_worker_main`.
Each worker the pool starts first blocks on the FIFO named by
``$REPRO_TEST_HOLD_FIFO`` until the test opens that FIFO for writing
and closes it again, and only then serves tasks exactly as the real
loop does.  The test therefore decides when a worker may finish its
task, with no timing involved.  This module is not a test file.  A
forked worker has it already, imported by the test; a spawned one,
such as the crash respawn, imports it through ``PYTHONPATH``.
"""

from __future__ import annotations

import os

from repro.sweep.pool import _worker_main

#: environment variable naming the FIFO a held worker waits on.
HOLD_FIFO_ENV = "REPRO_TEST_HOLD_FIFO"


def held_worker_main(conn) -> None:
    """Wait for the test's release, then run the real worker loop."""
    with open(os.environ[HOLD_FIFO_ENV], "rb") as fifo:
        fifo.read()  # returns at EOF: the test closed its write end
    _worker_main(conn)
