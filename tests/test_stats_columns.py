"""The result cache's packed stats codec and its failure modes.

``MachineStats.to_columns``/``from_columns`` are the on-disk form of a
cache entry's stats and the worker pool's replies: a JSON head and one
block of little-endian int64 counter columns.  ``to_dict``/``from_dict``
stay the per-node shape the golden files pin.  Stats read from a block stay backed by it until something
asks for the per-node records, and must read exactly like the stats
they were written from.  A damaged head or block must be rejected
(never truncated or misread), which the cache turns into one
invalidation and one miss.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cache_entry_parts, write_cache_entry
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


WIDTH = len(PROC_FIELDS) + len(CACHE_FIELDS)


def _column_backed(stats: MachineStats) -> MachineStats:
    """``stats`` read back from its JSON head and packed block, as a
    cache hit is."""
    head, block = stats.to_columns()
    return MachineStats.from_columns(json.loads(json.dumps(head)), block,
                                     len(stats.procs))


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
        stats.to_columns()[0]["network"]["by_type"]["RD_REQ"] = -1
        assert stats.network.by_type == STATS.network.by_type


def test_to_columns_does_not_hand_out_the_backing_columns():
    # the block goes out as immutable bytes and comes in copied
    lazy = _column_backed(STATS)
    assert type(lazy.to_columns()[1]) is bytes
    head, block = STATS.to_columns()
    buffer = bytearray(block)
    copied = MachineStats.from_columns(head, buffer, 4)
    buffer[:8] = struct.pack("<q", -1)
    assert copied == STATS


def test_block_is_positional_little_endian_int64():
    head, block = STATS.to_columns()
    n = len(STATS.procs)
    assert head["layout"] == COLUMNS_LAYOUT
    assert head["nodes"] == n == 4
    assert set(head) == {"version", "layout", "nodes", "execution_time",
                         "network"}
    assert len(block) == WIDTH * n * 8
    values = struct.unpack(f"<{WIDTH * n}q", block)
    fields = [("procs", f) for f in PROC_FIELDS] \
        + [("caches", f) for f in CACHE_FIELDS]
    for column, (group, name) in enumerate(fields):
        records = getattr(STATS, group)
        assert list(values[column * n:(column + 1) * n]) \
            == [getattr(r, name) for r in records], name


def test_a_single_node_round_trips():
    one = MachineStats.from_dict(STATS.to_dict())
    one.procs[1:] = []
    one.caches[1:] = []
    head, block = one.to_columns()
    assert len(block) == WIDTH * 8
    assert MachineStats.from_columns(head, block, 1) == one


def test_constant_columns_are_spelled_out_on_every_node():
    # no column is special: a value equal on every node is stored
    # once per node, like any other
    even = MachineStats.from_dict(STATS.to_dict())
    for p in even.procs:
        p.busy = 7
    head, block = even.to_columns()
    column = PROC_FIELDS.index("busy")
    assert struct.unpack_from("<4q", block, column * 4 * 8) == (7, 7, 7, 7)
    stats = MachineStats.from_columns(head, block, 4)
    assert stats.mean_busy == 7.0
    assert [p.busy for p in stats.procs] == [7, 7, 7, 7]


def test_zero_nodes_round_trip():
    empty = MachineStats.for_nodes(0)
    head, block = empty.to_columns()
    assert block == b""
    assert MachineStats.from_columns(head, block, 0) == empty
    assert MachineStats.from_columns(head, block, 0).procs == []


def test_counters_outside_int64_are_refused():
    for value in (2**63, -2**63 - 1):
        big = MachineStats.from_dict(STATS.to_dict())
        big.caches[2].writebacks = value
        with pytest.raises(OverflowError):
            big.to_columns()


def test_counters_that_are_not_ints_are_refused():
    # the block cannot hold a float or a string; a bool is an int
    for value in (0.5, "7", None):
        odd = MachineStats.from_dict(STATS.to_dict())
        odd.procs[3].read_stall = value
        with pytest.raises(TypeError):
            odd.to_columns()


# -- damaged payloads ----------------------------------------------------
#
# Each damage edits a head (dict) and a block (bytearray) in place.  The
# cases named after a schema-3 damage (a ragged column, a single-value
# column, the per-node or named form) apply the same damage to the
# packed form; a column is 4 values (32 bytes) long.

N = 4
COL = N * 8


def _ragged(head, block):
    block[COL:COL] = bytes(8)           # the first column one value long


def _ragged_short(head, block):
    del block[-8:]                      # the last column one value short


def _missing(head, block):
    del block[:COL]


def _extra(head, block):
    block += bytes(COL)


def _byte_short(head, block):
    del block[-1:]


def _byte_long(head, block):
    block.append(0)


def _wrong_version(head, block):
    head["version"] = STATS_SCHEMA_VERSION + 1


def _named_procs(head, block):
    # the schema-2 form: one named list per counter
    named = {f: [getattr(p, f) for p in STATS.procs] for f in PROC_FIELDS}
    block[:len(PROC_FIELDS) * COL] = json.dumps(named).encode()


def _list_procs(head, block):
    # the per-node form: one dict per node instead of the columns
    per_node = json.dumps(STATS.to_dict()["procs"]).encode()
    block[:len(PROC_FIELDS) * COL] = per_node


def _float_scalar(head, block):
    # a column stored as one value, as schema 3 stored a constant one
    block[:COL] = struct.pack("<d", 7.0)


def _string_scalar(head, block):
    start = len(PROC_FIELDS) * COL
    block[start:start + COL] = b"7"


def _bool_scalar(head, block):
    block[-COL:] = struct.pack("<?", True)


def _null_column(head, block):
    end = len(PROC_FIELDS) * COL
    block[end - COL:end] = b"null"


def _no_groups(head, block):
    del block[:]


def _more_nodes(head, block):
    head["nodes"] = 5


def _negative_nodes(head, block):
    head["nodes"] = -1


def _string_nodes(head, block):
    head["nodes"] = "4"


def _no_nodes(head, block):
    del head["nodes"]


def _three_node_payload(head, block):
    # consistent in itself, but not the requesting spec's 4 nodes
    three = MachineStats.from_dict(STATS.to_dict())
    del three.procs[3], three.caches[3]
    three_head, three_block = three.to_columns()
    head.update(three_head)
    block[:] = three_block


def _stale_layout(head, block):
    head["layout"] = "0" * len(COLUMNS_LAYOUT)


def _no_layout(head, block):
    del head["layout"]


def _network_unknown_field(head, block):
    head["network"]["bogus"] = 1


#: each case is rejected by ``from_columns(head, block, 4)``.
BAD_PAYLOADS = {
    "ragged_long": _ragged,
    "ragged_short": _ragged_short,
    "missing_column": _missing,
    "extra_column": _extra,
    "block_one_byte_short": _byte_short,
    "block_one_byte_long": _byte_long,
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


def _damaged(name: str) -> tuple[dict, bytearray]:
    head, block = STATS.to_columns()
    head, block = json.loads(json.dumps(head)), bytearray(block)
    BAD_PAYLOADS[name](head, block)
    return head, block


@pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
def test_bad_columns_raise_value_error(name):
    with pytest.raises(ValueError):
        MachineStats.from_columns(*_damaged(name), 4)


def test_the_three_node_payload_is_valid_on_its_own():
    stats = MachineStats.from_columns(*_damaged("node_count_not_the_specs"), 3)
    assert len(stats.procs) == 3


def test_stats_payload_that_is_not_an_object_raises_value_error():
    head, block = STATS.to_columns()
    for payload in ([], "stats", None):
        with pytest.raises(ValueError):
            MachineStats.from_columns(payload, block, 4)
    for not_bytes in (None, 4, "x" * len(block)):
        with pytest.raises(ValueError):
            MachineStats.from_columns(head, not_bytes, 4)


def _write_columns(cache: ResultCache, head: dict, block) -> Path:
    """``SPEC``'s entry with its stats head and block replaced."""
    cache.put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
    path = cache.path_for(SPEC)
    header, spec, _ = cache_entry_parts(path)
    write_cache_entry(path, {**header, "stats": head}, spec, block)
    return path


@pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
def test_bad_columns_invalidate_through_get(tmp_path, name):
    cache = ResultCache(tmp_path)
    path = _write_columns(cache, *_damaged(name))
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
    for damage in (b"\xff\xfe\x00not json", b"\xff\xfe\n{}\n"):
        cache.put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
        path = cache.path_for(SPEC)
        path.write_bytes(damage + STATS.to_columns()[1])
        assert cache.get(SPEC) is None
        assert not path.exists()
    assert (cache.invalidated, cache.misses) == (2, 2)


class _Spec:
    """Stands in for a ``RunSpec`` of any node count, 0 included (which
    ``RunSpec`` refuses): the cache reads only these three members."""

    def __init__(self, n_procs: int) -> None:
        self.n_procs = n_procs

    def key(self) -> str:
        return f"{self.n_procs:064x}"

    def to_json(self) -> str:
        return json.dumps({"n_procs": self.n_procs})


COUNTER = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def _random_stats(draw) -> MachineStats:
    n = draw(st.sampled_from([0, 1, 4, 16, 64]))
    rows = draw(st.lists(st.lists(COUNTER, min_size=WIDTH, max_size=WIDTH),
                         min_size=n, max_size=n))
    return MachineStats(
        procs=[ProcessorStats(*row[:len(PROC_FIELDS)]) for row in rows],
        caches=[CacheStats(*row[len(PROC_FIELDS):]) for row in rows],
        execution_time=draw(COUNTER),
    )


@settings(max_examples=40, deadline=None)
@given(stats=_random_stats())
def test_random_counters_round_trip_through_the_cache(tmp_path_factory, stats):
    spec = _Spec(len(stats.procs))
    root = tmp_path_factory.mktemp("cache")
    ResultCache(root).put(RunResult(spec=spec, stats=stats, wall_time=0.5))
    hit = ResultCache(root).get(spec)
    assert hit is not None
    assert hit.stats.to_dict() == stats.to_dict()
    for group in ("procs", "caches"):
        for node in hit.stats.to_dict()[group]:
            assert all(type(v) is int for v in node.values())


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


def _positional_columns(stats: MachineStats) -> dict:
    """``stats`` as schema 3 wrote it: positional JSON columns, a
    column equal on every node stored as that one int."""
    def packed(records, names):
        columns = [[getattr(r, f) for r in records] for f in names]
        return [c[0] if c and c.count(c[0]) == len(c) else c
                for c in columns]

    return {
        "version": STATS_SCHEMA_VERSION,
        "layout": COLUMNS_LAYOUT,
        "nodes": len(stats.procs),
        "execution_time": stats.execution_time,
        "procs": packed(stats.procs, PROC_FIELDS),
        "caches": packed(stats.caches, CACHE_FIELDS),
        "network": stats.to_dict()["network"],
    }


#: cache schema -> the stats payload an entry of that schema held
OLD_STATS = {1: MachineStats.to_dict, 2: _named_columns,
             3: _positional_columns}


def _write_old_entry(cache: ResultCache, schema: int) -> Path:
    """An entry exactly as a cache of an older schema wrote it: one
    JSON document."""
    key = SPEC.key()
    path = cache.path_for_key(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema": schema,
        "spec_key": key,
        "spec": SPEC.to_wire(),
        "stats": OLD_STATS[schema](STATS),
        "wall_time": 0.5,
    }, sort_keys=True))
    return path


@pytest.mark.parametrize("schema", sorted(OLD_STATS))
def test_old_entry_is_a_miss_and_rewritten_by_put(tmp_path, schema):
    assert CACHE_SCHEMA_VERSION == 4
    cache = ResultCache(tmp_path)
    path = _write_old_entry(cache, schema)
    assert cache.get(SPEC) is None
    assert (cache.invalidated, cache.misses) == (1, 1)
    assert not path.exists()
    cache.put(RunResult(spec=SPEC, stats=STATS, wall_time=0.5))
    header, spec, block = cache_entry_parts(path)
    assert header["schema"] == CACHE_SCHEMA_VERSION
    assert json.loads(spec)["v"] == SPEC_SCHEMA_VERSION
    assert header["stats"]["layout"] == COLUMNS_LAYOUT
    assert header["stats"]["nodes"] == SPEC.n_procs
    assert len(block) == WIDTH * SPEC.n_procs * 8
    again = ResultCache(tmp_path).get(SPEC)
    assert again is not None and again.stats == STATS


@pytest.mark.parametrize("schema", sorted(OLD_STATS))
def test_old_stats_under_the_new_schema_are_rejected(tmp_path, schema):
    # a stats payload of an older shape never reads as the new one,
    # even under the current header stamp and with the columns gone
    # from the block
    cache = ResultCache(tmp_path)
    _write_columns(cache, OLD_STATS[schema](STATS), b"")
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


@pytest.mark.parametrize("n", [3, 5, 65, 100])
def test_node_counts_that_do_not_fill_an_array_round_trip(n):
    # a column-backed stats keeps whole columns in arrays of at most 64
    # values; a column longer than that gets an array of its own
    stats = MachineStats(
        procs=[ProcessorStats(*range(i, i + 11)) for i in range(n)],
        caches=[CacheStats(*range(2 * i, 2 * i + 16)) for i in range(n)],
    )
    lazy = MachineStats.from_columns(*stats.to_columns(), n)
    assert lazy.mean_busy == stats.mean_busy
    assert lazy.miss_rate("total") == stats.miss_rate("total")
    assert lazy.to_columns() == stats.to_columns()
    assert lazy.to_dict() == stats.to_dict()
