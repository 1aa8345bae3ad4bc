"""Tests for the on-disk result cache."""

import json
import os
import signal
import struct

import pytest

from conftest import cache_entry_parts, write_cache_entry
from repro.stats.counters import MachineStats
from repro.sweep import (
    ResultCache,
    RunResult,
    RunSpec,
    SweepEngine,
    execute_spec,
)
from repro.sweep.cache import CACHE_SCHEMA_VERSION

SPEC = RunSpec.for_run("water", scale=0.2, n_procs=4)

#: one real simulation, reused across distinct specs -- the cache only
#: cares about the spec key.
_STATS = execute_spec(SPEC)


#: the machine the paper simulates, for the damaged-entry cases
SPEC16 = RunSpec.for_run("mp3d", protocol="BASIC", n_procs=16, scale=0.05,
                         seed=1994)
_STATS16 = execute_spec(SPEC16)


def fresh_result() -> RunResult:
    return RunResult(spec=SPEC, stats=_STATS, wall_time=0.5)


def _edit_header(path, edit) -> None:
    header, spec, block = cache_entry_parts(path)
    edit(header)
    write_cache_entry(path, header, spec, block)


class TestPutGet:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = fresh_result()
        cache.put(result)
        again = cache.get(SPEC)
        assert again is not None
        assert again.from_cache is True
        assert again.stats == result.stats
        assert again.wall_time == result.wall_time
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(SPEC) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        other = RunSpec.for_run("water", scale=0.2, n_procs=4, seed=7)
        assert cache.get(other) is None
        assert cache.misses == 1

    def test_layout_is_sharded_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        path = cache.path_for(SPEC)
        assert path.exists()
        assert path.parent.name == SPEC.key()[:2]
        assert len(cache) == 1


class TestInvalidation:
    def test_corrupt_file_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        cache.path_for(SPEC).write_text("not json{")
        assert cache.get(SPEC) is None
        assert cache.invalidated == 1
        assert not cache.path_for(SPEC).exists()

    def test_empty_file_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        cache.path_for(SPEC).write_bytes(b"")
        assert cache.get(SPEC) is None
        assert (cache.invalidated, cache.misses, cache.hits) == (1, 1, 0)
        assert not cache.path_for(SPEC).exists()

    def test_directory_at_entry_path_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(SPEC)
        (path / "inner").mkdir(parents=True)
        assert cache.get(SPEC) is None
        assert (cache.invalidated, cache.misses, cache.hits) == (1, 1, 0)
        # the entry cannot be unlinked; each read counts it again
        assert path.is_dir()
        assert cache.get(SPEC) is None
        assert (cache.invalidated, cache.misses) == (2, 2)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("writer", [False, True],
                             ids=["no-writer", "writer-attached"])
    def test_named_pipe_at_entry_path_is_a_miss(self, tmp_path, writer):
        """A FIFO at the entry's path reads as an invalid entry at
        once; an alarm fails the test if ``get`` blocks on it."""
        cache = ResultCache(tmp_path)
        path = cache.path_for(SPEC)
        path.parent.mkdir(parents=True)
        os.mkfifo(path)
        fd = os.open(path, os.O_RDWR | os.O_NONBLOCK) if writer else None

        def blocked(signum, frame):  # not an OSError, which get catches
            pytest.fail("get blocked on a named pipe")

        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(5)
        try:
            assert cache.get(SPEC) is None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            if fd is not None:
                os.close(fd)
        assert (cache.invalidated, cache.misses, cache.hits) == (1, 1, 0)
        assert not path.exists()

    def test_put_leaves_a_directory_at_entry_path_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(SPEC)
        (path / "inner").mkdir(parents=True)
        cache.put(fresh_result())
        assert path.is_dir() and (path / "inner").is_dir()
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        assert cache.get(SPEC) is None
        assert (cache.invalidated, cache.misses) == (1, 1)

    def test_put_leaves_a_link_at_entry_path_alone(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        target = tmp_path / "elsewhere.json"
        target.write_text("kept")
        path = cache.path_for(SPEC)
        path.parent.mkdir(parents=True)
        path.symlink_to(target)
        cache.put(fresh_result())
        assert path.is_symlink() and target.read_text() == "kept"
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_sweep_over_a_directory_returns_the_simulated_result(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(SPEC).mkdir(parents=True)
        engine = SweepEngine(cache=cache)
        (result,) = engine.run([SPEC])
        assert not result.from_cache
        assert result.stats == SweepEngine().run([SPEC])[0].stats
        assert cache.path_for(SPEC).is_dir()
        assert (cache.invalidated, cache.misses, cache.hits) == (1, 1, 0)

    def test_envelope_version_mismatch_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        _edit_header(cache.path_for(SPEC),
                     lambda h: h.update(schema=CACHE_SCHEMA_VERSION + 1))
        assert cache.get(SPEC) is None
        assert cache.invalidated == 1

    def test_stats_version_mismatch_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        _edit_header(cache.path_for(SPEC),
                     lambda h: h["stats"].update(version=999))
        assert cache.get(SPEC) is None
        assert cache.invalidated == 1

    def test_renamed_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        other = RunSpec.for_run("water", scale=0.2, n_procs=4, seed=7)
        target = cache.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(SPEC).rename(target)
        assert cache.get(other) is None
        assert cache.invalidated == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        assert cache.clear() == 1
        assert len(cache) == 0


def _encoded(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


def _one_byte_short(header, spec, block):
    return [_encoded(header), spec, block[:-1]]


def _one_byte_long(header, spec, block):
    return [_encoded(header), spec, block + b"\0"]


def _fifteen_nodes(header, spec, block):
    # the first 15 nodes of every column: a whole-node short block
    return [_encoded(header), spec, b"".join(
        block[i:i + 15 * 8] for i in range(0, len(block), 16 * 8))]


def _header_not_json(header, spec, block):
    return [_encoded(header)[:-1], spec, block]


def _no_spec_line(header, spec, block):
    return [_encoded(header), block]


def _wrong_layout(header, spec, block):
    header["stats"]["layout"] = "0" * 12
    return [_encoded(header), spec, block]


def _wrong_version(header, spec, block):
    header["stats"]["version"] += 1
    return [_encoded(header), spec, block]


def _schema_3(header, spec, block):
    # the schema-3 form: one JSON document, constant columns as one int
    values = struct.unpack(f"<{len(block) // 8}q", block)
    columns = [list(values[i:i + 16]) for i in range(0, len(values), 16)]
    columns = [c[0] if c.count(c[0]) == 16 else c for c in columns]
    header["schema"] = 3
    header["spec"] = json.loads(spec)
    header["stats"].update(procs=columns[:11], caches=columns[11:])
    return [json.dumps(header, sort_keys=True).encode()]


#: each turns a good 16-node entry's header, spec line and block into
#: the parts of an entry that must be an invalidated miss.
DAMAGED_ENTRIES = {
    "block_one_byte_short": _one_byte_short,
    "block_one_byte_long": _one_byte_long,
    "block_of_15_nodes": _fifteen_nodes,
    "header_not_json": _header_not_json,
    "no_spec_line": _no_spec_line,
    "wrong_layout": _wrong_layout,
    "wrong_version": _wrong_version,
    "schema_3_json_entry": _schema_3,
}


class TestDamagedEntries:
    """Each damaged entry is one invalidated miss; the next run
    re-simulates it to the stats it held and writes it anew."""

    @pytest.mark.parametrize("name", sorted(DAMAGED_ENTRIES))
    def test_damaged_entry_is_one_invalidated_miss(self, tmp_path, name):
        ResultCache(tmp_path).put(
            RunResult(spec=SPEC16, stats=_STATS16, wall_time=0.5))
        path = ResultCache(tmp_path).path_for(SPEC16)
        parts = DAMAGED_ENTRIES[name](*cache_entry_parts(path))
        path.write_bytes(b"\n".join(parts))
        cache = ResultCache(tmp_path)
        assert cache.get(SPEC16) is None
        assert (cache.invalidated, cache.misses, cache.hits) == (1, 1, 0)
        assert not path.exists()
        engine = SweepEngine(cache=ResultCache(tmp_path))
        (result,) = engine.run([SPEC16])
        assert not result.from_cache
        assert result.stats.to_dict() == _STATS16.to_dict()
        again = ResultCache(tmp_path).get(SPEC16)
        assert again is not None and again.stats == _STATS16

    def test_poisoned_read_stall_column_is_an_invalidated_miss(
            self, tmp_path):
        """Elements 3 and 4 of the ``read_stall`` column as a float and
        a bool: ``x + 0.5`` and ``true`` in a JSON entry, which schema 3
        served as a hit with a wrong mean.  ``put`` refuses the float,
        and their binary spellings (an 8-byte double, a 1-byte bool) in
        a hand-made block leave it short of 27 x 16 int64s."""
        good = _STATS16.procs[3].read_stall
        poisoned = MachineStats.from_dict(_STATS16.to_dict())
        poisoned.procs[3].read_stall = good + 0.5
        with pytest.raises(TypeError):
            ResultCache(tmp_path).put(RunResult(spec=SPEC16, stats=poisoned))
        assert not any(p.is_file() for p in tmp_path.rglob("*"))

        ResultCache(tmp_path).put(
            RunResult(spec=SPEC16, stats=_STATS16, wall_time=0.5))
        path = ResultCache(tmp_path).path_for(SPEC16)
        header, spec, block = cache_entry_parts(path)
        at = (1 * 16 + 3) * 8  # procs column 1 (read_stall), node 3
        block = (block[:at] + struct.pack("<d?", good + 0.5, True)
                 + block[at + 16:])
        write_cache_entry(path, header, spec, block)
        cache = ResultCache(tmp_path)
        assert cache.get(SPEC16) is None
        assert (cache.invalidated, cache.misses, cache.hits) == (1, 1, 0)
        (result,) = SweepEngine(cache=ResultCache(tmp_path)).run([SPEC16])
        assert not result.from_cache
        assert result.stats.mean_read_stall == _STATS16.mean_read_stall \
            == 3867.5

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1])
    def test_counter_outside_int64_writes_nothing(self, tmp_path, value):
        big = MachineStats.from_dict(_STATS.to_dict())
        big.procs[0].busy = value
        cache = ResultCache(tmp_path, hot_entries=4)
        with pytest.raises(OverflowError):
            cache.put(RunResult(spec=SPEC, stats=big))
        assert not any(p.is_file() for p in tmp_path.rglob("*"))
        assert cache.get(SPEC) is None and cache.hot_hits == 0
