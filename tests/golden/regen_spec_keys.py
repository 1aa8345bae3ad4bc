"""Regenerate the golden snapshots for tests/test_spec_keys.py.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_spec_keys.py

The snapshots pin ``RunSpec.key()`` (the result-cache address) and
``RunSpec.to_json()`` (the wire form cache files store) over every
application x the eight protocol combinations under RC and the four feasible under SC (CW needs release
consistency, so a spec refuses it under SC) x uniform/mesh network x
the default and both section-5.4 cache configurations.  Every cell id keeps a ``full_map`` directory field:
the ids date from when the directory organization was a spec option.  A changed key
orphans every cached result, so only regenerate them for an
intentional, reviewed spec change (one that also bumps
``SPEC_SCHEMA_VERSION``).
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from repro.config import ALL_PROTOCOLS, SC_PROTOCOLS, CacheConfig
from repro.experiments.runner import (
    limited_slc_cache,
    mesh_network,
    small_buffer_cache,
)
from repro.sweep.spec import RunSpec
from repro.workloads import ALL_APP_NAMES

CONSISTENCIES = ("RC", "SC")
DIRECTORIES = ("full_map",)
NETWORKS = (("uniform", None), ("mesh16", mesh_network(16)))
CACHES = (
    ("default", CacheConfig()),
    ("small_buffer", small_buffer_cache()),
    ("limited_slc", limited_slc_cache()),
)

OUT = Path(__file__).with_name("spec_keys.json")


def corpus() -> list[tuple[str, RunSpec]]:
    """(cell id, spec) for every cell of the pinned cross product."""
    cells = []
    for app, proto, cons, dirname, (net_name, net), (cache_name, cache) in (
        itertools.product(ALL_APP_NAMES, ALL_PROTOCOLS, CONSISTENCIES,
                          DIRECTORIES, NETWORKS, CACHES)
    ):
        if cons == "SC" and proto not in SC_PROTOCOLS:
            continue
        spec = RunSpec.for_run(
            app, protocol=proto, consistency=cons, network=net,
            cache=cache,
        )
        cells.append(
            (f"{app}/{proto}/{cons}/{dirname}/{net_name}/{cache_name}", spec)
        )
    return cells


def snapshot() -> dict:
    return {
        cell: {"key": spec.key(), "json": spec.to_json()}
        for cell, spec in corpus()
    }


if __name__ == "__main__":
    OUT.write_text(json.dumps(snapshot(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(json.loads(OUT.read_text()))} specs to {OUT}")
