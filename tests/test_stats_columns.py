"""The result cache's columnar stats codec and its failure modes.

``MachineStats.to_columns``/``from_columns`` are the on-disk form of a
cache entry's stats; ``to_dict``/``from_dict`` stay the worker-pool
shape.  Both must carry every counter of every golden cell, and a
damaged columnar payload must be rejected (never truncated), which the
cache turns into one invalidation and one miss.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.stats.counters import STATS_SCHEMA_VERSION, MachineStats
from repro.sweep import (
    SPEC_SCHEMA_VERSION,
    ResultCache,
    RunResult,
    RunSpec,
    SweepEngine,
    execute_spec,
)
from repro.sweep.cache import CACHE_SCHEMA_VERSION

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_STATS = {
    f"{name}:{cell}": entry["stats"]
    for name in ("extension_parity", "issue_loop_parity")
    for cell, entry in json.loads(
        (GOLDEN_DIR / f"{name}.json").read_text()
    ).items()
}

SPEC = RunSpec.for_run("water", protocol="P+CW", scale=0.2, n_procs=4)
STATS = execute_spec(SPEC)


@pytest.mark.parametrize("cell", sorted(GOLDEN_STATS), ids=str)
def test_columns_round_trip_every_golden_cell(cell):
    stats = MachineStats.from_dict(GOLDEN_STATS[cell])
    columns = json.loads(json.dumps(stats.to_columns()))
    assert MachineStats.from_columns(columns).to_dict() == stats.to_dict()
    assert MachineStats.from_columns(columns) == stats


@pytest.mark.parametrize("cell", sorted(GOLDEN_STATS), ids=str)
def test_to_dict_bytes_match_asdict(cell):
    # key order included: the per-node dicts serialize exactly as
    # ``dataclasses.asdict`` laid them out
    stats = MachineStats.from_dict(GOLDEN_STATS[cell])
    expected = {
        "version": STATS_SCHEMA_VERSION,
        "execution_time": stats.execution_time,
        "procs": [dataclasses.asdict(p) for p in stats.procs],
        "caches": [dataclasses.asdict(c) for c in stats.caches],
        "network": dataclasses.asdict(stats.network),
    }
    assert json.dumps(stats.to_dict()) == json.dumps(expected)


def test_to_dict_copies_by_type():
    stats = MachineStats.from_dict(STATS.to_dict())
    stats.to_dict()["network"]["by_type"]["RD_REQ"] = -1
    stats.to_columns()["network"]["by_type"]["RD_REQ"] = -1
    assert stats.network.by_type == STATS.network.by_type


def test_columns_store_each_counter_name_once():
    columns = STATS.to_columns()
    assert columns["procs"]["busy"] == [p.busy for p in STATS.procs]
    assert len(json.dumps(columns)) < len(json.dumps(STATS.to_dict()))


def test_zero_nodes_round_trip():
    empty = MachineStats.for_nodes(0)
    assert MachineStats.from_columns(empty.to_columns()) == empty


def _ragged(cols):
    cols["procs"]["busy"].append(1)


def _ragged_short(cols):
    cols["caches"]["writebacks"].pop()


def _missing(cols):
    del cols["procs"]["busy"]


def _extra(cols):
    cols["caches"]["bogus"] = [0] * len(cols["caches"]["writebacks"])


def _wrong_version(cols):
    cols["version"] = STATS_SCHEMA_VERSION + 1


def _list_procs(cols):
    cols["procs"] = STATS.to_dict()["procs"]


def _scalar_column(cols):
    cols["procs"]["busy"] = 7


def _no_groups(cols):
    del cols["procs"], cols["caches"]


BAD_PAYLOADS = {
    "ragged_long": _ragged,
    "ragged_short": _ragged_short,
    "missing_column": _missing,
    "extra_column": _extra,
    "wrong_version": _wrong_version,
    "non_dict_procs": _list_procs,
    "scalar_column": _scalar_column,
    "no_groups": _no_groups,
}


def _damaged(name: str) -> dict:
    cols = json.loads(json.dumps(STATS.to_columns()))
    BAD_PAYLOADS[name](cols)
    return cols


@pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
def test_bad_columns_raise_value_error(name):
    with pytest.raises(ValueError):
        MachineStats.from_columns(_damaged(name))


def test_stats_payload_that_is_not_an_object_raises_value_error():
    for payload in ([], "stats", None):
        with pytest.raises(ValueError):
            MachineStats.from_columns(payload)


def _write_stats(cache: ResultCache, stats_payload) -> Path:
    cache.put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
    path = cache.path_for(SPEC)
    payload = json.loads(path.read_text())
    payload["stats"] = stats_payload
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
def test_bad_columns_invalidate_through_get(tmp_path, name):
    cache = ResultCache(tmp_path)
    path = _write_stats(cache, _damaged(name))
    assert cache.get(SPEC) is None
    assert (cache.invalidated, cache.misses, cache.hits) == (1, 1, 0)
    assert not path.exists()


def test_non_utf8_entry_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
    path = cache.path_for(SPEC)
    path.write_bytes(b"\xff\xfe\x00not json")
    assert cache.get(SPEC) is None
    assert (cache.invalidated, cache.misses) == (1, 1)
    assert not path.exists()


def _write_schema1_entry(cache: ResultCache) -> Path:
    """An entry exactly as a schema-1 cache wrote it."""
    key = SPEC.key()
    path = cache.path_for_key(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "schema": 1,
            "spec_key": key,
            "spec": SPEC.to_wire(),
            "stats": STATS.to_dict(),
            "wall_time": 0.5,
        }, fh, sort_keys=True)
    return path


def test_schema1_entry_is_a_miss_and_rewritten_by_put(tmp_path):
    assert CACHE_SCHEMA_VERSION == 2
    cache = ResultCache(tmp_path)
    path = _write_schema1_entry(cache)
    assert cache.get(SPEC) is None
    assert (cache.invalidated, cache.misses) == (1, 1)
    assert not path.exists()
    cache.put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
    payload = json.loads(path.read_text())
    assert payload["schema"] == CACHE_SCHEMA_VERSION
    assert payload["spec"]["v"] == SPEC_SCHEMA_VERSION
    assert "busy" in payload["stats"]["procs"]
    again = ResultCache(tmp_path).get(SPEC)
    assert again is not None and again.stats == STATS


def test_engine_resimulates_a_schema1_entry(tmp_path):
    _write_schema1_entry(ResultCache(tmp_path))
    engine = SweepEngine(cache=ResultCache(tmp_path))
    (result,) = engine.run([SPEC])
    assert not result.from_cache
    assert result.stats == STATS
    assert engine.cache.invalidated == 1
    assert ResultCache(tmp_path).get(SPEC) is not None
