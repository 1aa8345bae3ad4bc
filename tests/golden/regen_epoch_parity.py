"""Regenerate the golden epoch samples for tests/test_epochs.py.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_epoch_parity.py

Each cell runs a machine with an ``EpochSampler`` attached and pins
every snapshot it takes.  A sampler tick is an event of its own, so
the snapshots pin the counters an observer reads *between* ops:
the processors' shared-reference counts and the caches' miss
counters, at every tick, not only at the end of the run.  Only
regenerate them for an intentional, reviewed behaviour change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import Consistency, SystemConfig
from repro.stats.epochs import EpochSampler
from repro.system import System
from repro.workloads import build_workload

#: (app, protocol, consistency, n_procs, scale, interval) cells
CELLS = (
    ("hitpath", "BASIC", "RC", 16, 0.05, 997),
    ("mp3d", "P+CW+M", "RC", 16, 0.1, 307),
    ("cholesky", "BASIC", "SC", 8, 0.25, 1009),
)

OUT = Path(__file__).with_name("epoch_parity.json")


def cell_name(app: str, proto: str, consistency: str, n_procs: int,
              scale: float, interval: int) -> str:
    return f"{app}/{proto}/{consistency}/p{n_procs}/s{scale}/i{interval}"


def sample(app: str, proto: str, consistency: str, n_procs: int,
           scale: float, interval: int) -> list[list[int]]:
    """Every snapshot of one sampled run, as ``[time, refs, cold,
    replacement, coherence]`` rows."""
    cfg = SystemConfig(
        n_procs=n_procs, consistency=Consistency[consistency]
    ).with_protocol(proto)
    system = System(cfg)
    sampler = EpochSampler.attach(system, interval=interval)
    system.run(build_workload(app, cfg, scale=scale))
    return [
        [s.time, s.shared_refs, s.cold, s.replacement, s.coherence]
        for s in sampler.snapshots
    ]


def main() -> None:
    golden = {cell_name(*cell): sample(*cell) for cell in CELLS}
    OUT.write_text(json.dumps(golden, indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {OUT} ({len(golden)} cells)")


if __name__ == "__main__":
    main()
