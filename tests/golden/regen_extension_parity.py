"""Regenerate the golden snapshots for tests/test_extension_parity.py.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_extension_parity.py

The snapshots pin counter-for-counter behaviour of all eight protocol
combinations (BASIC, P, CW, M and their compositions) on two small
workloads.  They were first recorded *before* P/M/CW were extracted
into the extension pipeline, so the parity test proves the refactor
preserved every counter exactly.  Only regenerate them for an
intentional, reviewed behaviour change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import ALL_PROTOCOLS, SystemConfig
from repro.system import System
from repro.workloads import build_workload

#: (app, n_procs, scale) cells: small enough for CI, busy enough that
#: every extension fires (prefetches, flushes, updates, detections).
CELLS = (("mp3d", 8, 0.25), ("pthor", 8, 0.25), ("ocean", 8, 0.25))

OUT = Path(__file__).with_name("extension_parity.json")


def snapshot() -> dict:
    golden: dict[str, dict] = {}
    for app, n_procs, scale in CELLS:
        for proto in ALL_PROTOCOLS:
            cfg = SystemConfig(n_procs=n_procs).with_protocol(proto)
            streams = build_workload(app, cfg, scale=scale)
            system = System(cfg)
            stats = system.run(streams)
            golden[f"{app}/{proto}"] = {
                "app": app,
                "n_procs": n_procs,
                "scale": scale,
                "protocol": proto,
                "events_fired": system.sim.events_fired,
                "migratory_detections": sum(
                    n.home.migratory_detections for n in system.nodes
                ),
                "migratory_reversions": sum(
                    n.home.migratory_reversions for n in system.nodes
                ),
                "stats": stats.to_dict(),
            }
    return golden


if __name__ == "__main__":
    OUT.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(json.loads(OUT.read_text()))} cells to {OUT}")
