"""Regenerate the golden snapshots for tests/test_issue_loop_parity.py.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_issue_loop_parity.py

The snapshots pin the processor issue loop's resume points that the
RC, 8-processor grid of ``extension_parity.json`` leaves out: the
interleaved hit path of 16 processors (another processor's event
nearly always sits inside the next op's window, so the loop suspends
and resumes once per op), and the blocking SC write and release
waits.  Only regenerate them for an intentional, reviewed behaviour
change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import Consistency, SystemConfig
from repro.system import System
from repro.workloads import build_workload

#: (app, protocol, consistency, n_procs, scale) cells
CELLS = (
    ("hitpath", "BASIC", "RC", 16, 0.05),
    ("mp3d", "P+M", "SC", 8, 0.25),
    ("cholesky", "BASIC", "SC", 8, 0.25),
)

OUT = Path(__file__).with_name("issue_loop_parity.json")


def snapshot() -> dict:
    golden: dict[str, dict] = {}
    for app, proto, consistency, n_procs, scale in CELLS:
        cfg = SystemConfig(
            n_procs=n_procs, consistency=Consistency[consistency]
        ).with_protocol(proto)
        system = System(cfg)
        stats = system.run(build_workload(app, cfg, scale=scale))
        golden[f"{app}/{proto}/{consistency}/{n_procs}"] = {
            "app": app,
            "protocol": proto,
            "consistency": consistency,
            "n_procs": n_procs,
            "scale": scale,
            "events_fired": system.sim.events_fired,
            "stats": stats.to_dict(),
        }
    return golden


if __name__ == "__main__":
    OUT.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(json.loads(OUT.read_text()))} cells to {OUT}")
