"""Counter-for-counter parity of the extension pipeline.

The golden snapshots in ``tests/golden/extension_parity.json`` were
recorded *before* P/M/CW were extracted from the monolithic
cache/home controllers into :mod:`repro.core.extensions`.  Every cell
pins ``MachineStats.to_dict()``, the total event count and the
migratory detection/reversion counters for one (workload, protocol)
pair, so any drift in hook placement, marker accounting or timing
introduced by pipeline dispatch fails loudly here.  The
``mesh<width>/...`` cells (recorded before the mesh path table) run the
§5.3 wormhole mesh, so link contention and ``peak_link_utilization``
are pinned too.

Regenerate (only for an intentional behaviour change) with
``PYTHONPATH=src python tests/golden/regen_extension_parity.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import NetworkConfig, NetworkKind, SystemConfig
from repro.system import System
from repro.workloads import build_workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "extension_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=str)
def test_pipeline_matches_pre_refactor_golden(cell: str) -> None:
    expected = GOLDEN[cell]
    width = expected.get("link_width_bits")
    network = (
        NetworkConfig() if width is None
        else NetworkConfig(kind=NetworkKind.MESH, link_width_bits=width)
    )
    cfg = SystemConfig(
        n_procs=expected["n_procs"], network=network
    ).with_protocol(expected["protocol"])
    streams = build_workload(expected["app"], cfg, scale=expected["scale"])
    system = System(cfg)
    stats = system.run(streams)

    assert stats.to_dict() == expected["stats"]
    assert system.sim.events_fired == expected["events_fired"]
    assert (
        sum(n.home.migratory_detections for n in system.nodes)
        == expected["migratory_detections"]
    )
    assert (
        sum(n.home.migratory_reversions for n in system.nodes)
        == expected["migratory_reversions"]
    )
