"""Tests for the on-disk result cache."""

import json
import os
import signal

import pytest

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


def fresh_result() -> RunResult:
    return RunResult(spec=SPEC, stats=_STATS, wall_time=0.5)


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
        path = cache.path_for(SPEC)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(SPEC) is None
        assert cache.invalidated == 1

    def test_stats_version_mismatch_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        path = cache.path_for(SPEC)
        payload = json.loads(path.read_text())
        payload["stats"]["version"] = 999
        path.write_text(json.dumps(payload))
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
