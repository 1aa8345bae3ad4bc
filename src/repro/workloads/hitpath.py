"""Hot-path microbenchmark stream (not a paper workload).

Every real workload is dominated by ``think`` ops and first-level
cache hits -- references the paper's methodology charges a fixed,
contention-free latency.  This generator distils that common case
into a stream that is *almost entirely* think ops and FLC hits, with
a sprinkle of buffered writes: each processor loops over a small
private working set that stays resident in its FLC after warm-up, so
the simulator's per-reference overhead -- not protocol work -- is
what gets measured.  The end-to-end benchmark's ``hitpath16``
workload uses it to track the cost of the synchronous fast path
across revisions.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.workloads.base import BLOCK, Op, StreamBuilder

#: resident blocks per processor; small enough to stay in any FLC
WORKING_SET_BLOCKS = 8


def streams(
    cfg: SystemConfig, scale: float = 1.0, seed: int = 1994, **_kw
) -> list[list[Op]]:
    """One hit-dominated loop per processor over a private page."""
    n_ops = max(1, int(40_000 * scale))
    out = []
    for p in range(cfg.n_procs):
        b = StreamBuilder(seed=seed + p)
        base = p * cfg.cache.page_size  # private page -> local home
        for i in range(WORKING_SET_BLOCKS):  # warm the working set
            b.read(base + i * BLOCK)
        for i in range(n_ops):
            b.think(2 + (i + p) % 7)
            b.read(base + (i % WORKING_SET_BLOCKS) * BLOCK)
            if i % 13 == 0:
                b.write(base + (i % WORKING_SET_BLOCKS) * BLOCK + 4)
        out.append(b.ops)
    return out
