"""Cache addresses and wire bytes of ``RunSpec`` are pinned.

``tests/golden/spec_keys.json`` holds ``key()`` and ``to_json()`` for
every application x the eight protocol combinations x RC/SC x
uniform/mesh x the three cache configurations.  A changed key silently orphans every cached result
and every hash a service client holds, so the serialization must
reproduce these bytes exactly.

Regenerate (only for an intentional spec change) with
``PYTHONPATH=src python tests/golden/regen_spec_keys.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.stats.counters import MachineStats
from repro.sweep import ResultCache, RunResult, RunSpec, SweepEngine

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "spec_keys.json").read_text())

sys.path.insert(0, str(GOLDEN_DIR))
from regen_spec_keys import corpus  # noqa: E402


def test_corpus_matches_golden():
    cells = corpus()
    assert len(cells) == len(GOLDEN) == 576
    for cell, spec in cells:
        expected = GOLDEN[cell]
        assert spec.to_json() == expected["json"], cell
        assert spec.key() == expected["key"], cell


def test_golden_json_round_trips_to_the_same_key():
    for cell, expected in GOLDEN.items():
        spec = RunSpec.from_json(expected["json"])
        assert spec.key() == expected["key"], cell


def test_int_and_float_scale_share_one_key():
    as_int = RunSpec.for_run("mp3d", scale=1)
    as_float = RunSpec.for_run("mp3d", scale=1.0)
    assert as_int == as_float
    assert hash(as_int) == hash(as_float)
    assert as_int.key() == as_float.key()
    assert as_int.to_json() == as_float.to_json()
    assert type(as_int.scale) is float
    # a wire payload carrying an int scale, as a service client posts it
    wire = as_float.to_wire()
    wire["scale"] = 1
    assert RunSpec.from_wire(wire).key() == as_float.key()


def test_int_and_float_scale_share_one_cache_entry(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(RunResult(
        spec=RunSpec.for_run("mp3d", n_procs=2, scale=1),
        stats=MachineStats.for_nodes(2),
    ))
    hit = cache.get(RunSpec.for_run("mp3d", n_procs=2, scale=1.0))
    assert hit is not None and hit.from_cache
    assert len(cache) == 1


def test_int_and_float_scale_dedup_in_one_batch():
    engine = SweepEngine()
    first, second = engine.run([
        RunSpec.for_run("water", n_procs=2, scale=1),
        RunSpec.for_run("water", n_procs=2, scale=1.0),
    ])
    assert engine.deduped == 1
    assert first.stats == second.stats
