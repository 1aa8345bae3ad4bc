"""The result cache's columnar stats codec and its failure modes.

``MachineStats.to_columns``/``from_columns`` are the on-disk form of a
cache entry's stats; ``to_dict``/``from_dict`` stay the worker-pool
shape.  Stats read from columns stay backed by them until something
asks for the per-node records, and must read exactly like the stats
they were written from.  A damaged columnar payload must be rejected
(never truncated or misread), which the cache turns into one
invalidation and one miss.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.stats.counters import (
    COLUMNS_LAYOUT,
    STATS_SCHEMA_VERSION,
    CacheStats,
    MachineStats,
    ProcessorStats,
)
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

PROC_FIELDS = [f.name for f in dataclasses.fields(ProcessorStats)]
CACHE_FIELDS = [f.name for f in dataclasses.fields(CacheStats)]


def _column_backed(stats: MachineStats) -> MachineStats:
    """``stats`` read back from its JSON columns, as a cache hit is."""
    columns = json.loads(json.dumps(stats.to_columns()))
    return MachineStats.from_columns(columns, len(stats.procs))


def _materialized(stats: MachineStats) -> bool:
    return stats._columns is None


@pytest.mark.parametrize("cell", sorted(GOLDEN_STATS), ids=str)
def test_columns_round_trip_every_golden_cell(cell):
    stats = MachineStats.from_dict(GOLDEN_STATS[cell])
    assert _column_backed(stats).to_dict() == stats.to_dict()
    assert _column_backed(stats) == stats
    assert _column_backed(stats).to_columns() == stats.to_columns()


@pytest.mark.parametrize("cell", sorted(GOLDEN_STATS), ids=str)
def test_column_backed_stats_read_like_eager_ones(cell):
    eager = MachineStats.from_dict(GOLDEN_STATS[cell])
    lazy = _column_backed(eager)
    for name in ("mean_busy", "mean_read_stall", "mean_write_stall",
                 "mean_acquire_stall", "mean_release_stall",
                 "total_shared_refs", "execution_time"):
        assert getattr(lazy, name) == getattr(eager, name), name
    for component in ("cold", "replacement", "coherence", "total"):
        assert lazy.miss_rate(component) == eager.miss_rate(component)
    assert lazy.network == eager.network
    assert lazy.to_dict() == eager.to_dict()
    assert lazy == eager and eager == lazy
    assert repr(lazy) == repr(eager)
    assert not _materialized(lazy)          # none of that built records


@pytest.mark.parametrize("cell", sorted(GOLDEN_STATS), ids=str)
def test_to_dict_bytes_match_asdict(cell):
    # key order included: the per-node dicts serialize exactly as
    # ``dataclasses.asdict`` laid them out, from either backing form
    stats = MachineStats.from_dict(GOLDEN_STATS[cell])
    expected = {
        "version": STATS_SCHEMA_VERSION,
        "execution_time": stats.execution_time,
        "procs": [dataclasses.asdict(p) for p in stats.procs],
        "caches": [dataclasses.asdict(c) for c in stats.caches],
        "network": dataclasses.asdict(stats.network),
    }
    assert json.dumps(stats.to_dict()) == json.dumps(expected)
    assert json.dumps(_column_backed(stats).to_dict()) == json.dumps(expected)


def test_records_are_built_on_first_access_and_the_columns_dropped():
    lazy = _column_backed(STATS)
    assert not _materialized(lazy)
    procs = lazy.procs
    assert _materialized(lazy)
    assert procs == STATS.procs and lazy.caches == STATS.caches
    assert lazy.procs is procs                  # built once
    assert lazy.mean_busy == STATS.mean_busy
    assert lazy.miss_rate("total") == STATS.miss_rate("total")
    assert lazy == STATS and lazy.to_columns() == STATS.to_columns()


def test_caches_access_alone_builds_both_groups():
    lazy = _column_backed(STATS)
    assert lazy.caches == STATS.caches
    assert _materialized(lazy) and lazy.procs == STATS.procs


def test_materialized_records_are_independent_objects():
    lazy = _column_backed(STATS)
    lazy.procs[0].busy += 1
    assert lazy.procs[1].busy == STATS.procs[1].busy
    assert lazy != STATS


def test_to_dict_copies_by_type():
    for stats in (MachineStats.from_dict(STATS.to_dict()),
                  _column_backed(STATS)):
        stats.to_dict()["network"]["by_type"]["RD_REQ"] = -1
        stats.to_columns()["network"]["by_type"]["RD_REQ"] = -1
        assert stats.network.by_type == STATS.network.by_type


def test_to_columns_does_not_hand_out_the_backing_columns():
    lazy = _column_backed(STATS)
    for col in lazy.to_columns()["caches"]:
        if isinstance(col, list):
            col.append(-1)
    assert lazy == STATS


def test_columns_are_positional_with_constant_columns_as_one_int():
    columns = STATS.to_columns()
    assert columns["layout"] == COLUMNS_LAYOUT
    assert columns["nodes"] == len(STATS.procs) == 4
    assert len(columns["procs"]) == len(PROC_FIELDS)
    assert len(columns["caches"]) == len(CACHE_FIELDS)
    for group, fields, records in (("procs", PROC_FIELDS, STATS.procs),
                                   ("caches", CACHE_FIELDS, STATS.caches)):
        for name, col in zip(fields, columns[group]):
            values = [getattr(r, name) for r in records]
            if len(set(values)) == 1:
                assert col == values[0] and type(col) is int, name
            else:
                assert col == values, name
    assert any(type(col) is int for col in columns["procs"])
    assert len(json.dumps(columns)) < len(json.dumps(STATS.to_dict()))


def test_a_single_node_stores_every_column_as_one_int():
    one = MachineStats.from_dict(STATS.to_dict())
    one.procs[1:] = []
    one.caches[1:] = []
    columns = one.to_columns()
    assert all(type(c) is int for c in columns["procs"] + columns["caches"])
    assert MachineStats.from_columns(columns, 1) == one


def test_scalar_column_is_that_value_on_every_node():
    # a constant column written as a list reads the same as one int
    cols = json.loads(json.dumps(STATS.to_columns()))
    cols["procs"][PROC_FIELDS.index("busy")] = 7
    stats = MachineStats.from_columns(cols, 4)
    assert stats.mean_busy == 7.0
    spelled = json.loads(json.dumps(cols))
    spelled["procs"][PROC_FIELDS.index("busy")] = [7, 7, 7, 7]
    assert MachineStats.from_columns(spelled, 4) == stats
    assert MachineStats.from_columns(spelled, 4).to_columns() == cols
    assert [p.busy for p in stats.procs] == [7, 7, 7, 7]


def test_zero_nodes_round_trip():
    empty = MachineStats.for_nodes(0)
    assert MachineStats.from_columns(empty.to_columns(), 0) == empty
    assert MachineStats.from_columns(empty.to_columns(), 0).procs == []


# -- damaged payloads ----------------------------------------------------


def _list_column(cols, group: str) -> list:
    """The first column of ``group`` stored as a list."""
    return next(c for c in cols[group] if isinstance(c, list))


def _ragged(cols):
    _list_column(cols, "procs").append(1)


def _ragged_short(cols):
    _list_column(cols, "caches").pop()


def _missing(cols):
    del cols["procs"][0]


def _extra(cols):
    cols["caches"].append(0)


def _wrong_version(cols):
    cols["version"] = STATS_SCHEMA_VERSION + 1


def _named_procs(cols):
    # the schema-2 form: one named column per counter
    cols["procs"] = dict(zip(PROC_FIELDS, cols["procs"]))


def _list_procs(cols):
    # the per-node form: one dict per node instead of the columns
    cols["procs"] = STATS.to_dict()["procs"]


def _float_scalar(cols):
    cols["procs"][0] = 7.0


def _string_scalar(cols):
    cols["caches"][0] = "7"


def _bool_scalar(cols):
    cols["caches"][-1] = True


def _null_column(cols):
    cols["procs"][-1] = None


def _no_groups(cols):
    del cols["procs"], cols["caches"]


def _more_nodes(cols):
    cols["nodes"] = 5


def _negative_nodes(cols):
    cols["nodes"] = -1


def _string_nodes(cols):
    cols["nodes"] = "4"


def _no_nodes(cols):
    del cols["nodes"]


def _three_node_payload(cols):
    # consistent in itself, but not the requesting spec's 4 nodes
    cols["nodes"] = 3
    for group in ("procs", "caches"):
        for col in cols[group]:
            if isinstance(col, list):
                col.pop()


def _stale_layout(cols):
    cols["layout"] = "0" * len(COLUMNS_LAYOUT)


def _no_layout(cols):
    del cols["layout"]


def _network_unknown_field(cols):
    cols["network"]["bogus"] = 1


#: each case is rejected by ``from_columns(payload, 4)``.  The first
#: eight are the schema-2 cases, ported; ``float_scalar`` stands in for
#: ``scalar_column``, since a single-int column is now valid.
BAD_PAYLOADS = {
    "ragged_long": _ragged,
    "ragged_short": _ragged_short,
    "missing_column": _missing,
    "extra_column": _extra,
    "wrong_version": _wrong_version,
    "non_dict_procs": _list_procs,
    "float_scalar": _float_scalar,
    "no_groups": _no_groups,
    "named_procs": _named_procs,
    "string_scalar": _string_scalar,
    "bool_scalar": _bool_scalar,
    "null_column": _null_column,
    "more_nodes": _more_nodes,
    "negative_nodes": _negative_nodes,
    "string_nodes": _string_nodes,
    "no_nodes": _no_nodes,
    "node_count_not_the_specs": _three_node_payload,
    "stale_layout": _stale_layout,
    "no_layout": _no_layout,
    "network_unknown_field": _network_unknown_field,
}


def _damaged(name: str) -> dict:
    cols = json.loads(json.dumps(STATS.to_columns()))
    BAD_PAYLOADS[name](cols)
    return cols


@pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
def test_bad_columns_raise_value_error(name):
    with pytest.raises(ValueError):
        MachineStats.from_columns(_damaged(name), 4)


def test_the_three_node_payload_is_valid_on_its_own():
    stats = MachineStats.from_columns(_damaged("node_count_not_the_specs"), 3)
    assert len(stats.procs) == 3


def test_stats_payload_that_is_not_an_object_raises_value_error():
    for payload in ([], "stats", None):
        with pytest.raises(ValueError):
            MachineStats.from_columns(payload, 4)


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


def test_cache_hits_are_column_backed(tmp_path):
    ResultCache(tmp_path).put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
    cache = ResultCache(tmp_path, hot_entries=4)
    cold, hot = cache.get(SPEC), cache.get(SPEC)
    assert cache.hot_hits == 1
    for hit in (cold, hot):
        assert not _materialized(hit.stats)
        assert hit.stats == STATS


def test_non_utf8_entry_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
    path = cache.path_for(SPEC)
    path.write_bytes(b"\xff\xfe\x00not json")
    assert cache.get(SPEC) is None
    assert (cache.invalidated, cache.misses) == (1, 1)
    assert not path.exists()


def _named_columns(stats: MachineStats) -> dict:
    """``stats`` as schema 2 wrote it: one named list per counter."""
    return {
        "version": STATS_SCHEMA_VERSION,
        "execution_time": stats.execution_time,
        "procs": {f: [getattr(p, f) for p in stats.procs]
                  for f in PROC_FIELDS},
        "caches": {f: [getattr(c, f) for c in stats.caches]
                   for f in CACHE_FIELDS},
        "network": stats.to_dict()["network"],
    }


#: cache schema -> the stats payload an entry of that schema held
OLD_STATS = {1: MachineStats.to_dict, 2: _named_columns}


def _write_old_entry(cache: ResultCache, schema: int) -> Path:
    """An entry exactly as a cache of an older schema wrote it."""
    key = SPEC.key()
    path = cache.path_for_key(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "schema": schema,
            "spec_key": key,
            "spec": SPEC.to_wire(),
            "stats": OLD_STATS[schema](STATS),
            "wall_time": 0.5,
        }, fh, sort_keys=True)
    return path


@pytest.mark.parametrize("schema", sorted(OLD_STATS))
def test_old_entry_is_a_miss_and_rewritten_by_put(tmp_path, schema):
    assert CACHE_SCHEMA_VERSION == 3
    cache = ResultCache(tmp_path)
    path = _write_old_entry(cache, schema)
    assert cache.get(SPEC) is None
    assert (cache.invalidated, cache.misses) == (1, 1)
    assert not path.exists()
    cache.put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
    payload = json.loads(path.read_text())
    assert payload["schema"] == CACHE_SCHEMA_VERSION
    assert payload["spec"]["v"] == SPEC_SCHEMA_VERSION
    assert payload["stats"]["layout"] == COLUMNS_LAYOUT
    assert payload["stats"]["nodes"] == SPEC.n_procs
    again = ResultCache(tmp_path).get(SPEC)
    assert again is not None and again.stats == STATS


@pytest.mark.parametrize("schema", sorted(OLD_STATS))
def test_old_stats_under_the_new_schema_are_rejected(tmp_path, schema):
    # a stats payload of an older shape never reads as the new one,
    # even under the current envelope stamp
    cache = ResultCache(tmp_path)
    _write_stats(cache, OLD_STATS[schema](STATS))
    assert cache.get(SPEC) is None
    assert (cache.invalidated, cache.misses, cache.hits) == (1, 1, 0)


@pytest.mark.parametrize("schema", sorted(OLD_STATS))
def test_engine_resimulates_an_old_entry(tmp_path, schema):
    _write_old_entry(ResultCache(tmp_path), schema)
    engine = SweepEngine(cache=ResultCache(tmp_path))
    (result,) = engine.run([SPEC])
    assert not result.from_cache
    assert result.stats == STATS
    assert engine.cache.invalidated == 1
    assert ResultCache(tmp_path).get(SPEC) is not None
