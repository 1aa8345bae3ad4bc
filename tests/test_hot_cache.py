"""Tests for the result cache's hot tier and write-through puts."""

import pytest

from repro.sweep import ResultCache, RunResult, RunSpec, execute_spec

SPEC = RunSpec.for_run("water", scale=0.2, n_procs=4)

#: one real simulation reused across distinct specs (the cache only
#: addresses by spec key, so tier tests stay fast).
_STATS = execute_spec(SPEC)


def result_for_seed(seed: int) -> RunResult:
    spec = RunSpec.for_run("water", scale=0.2, n_procs=4, seed=seed)
    return RunResult(spec=spec, stats=_STATS, wall_time=0.5)


class TestHotTier:
    def test_repeat_get_is_a_hot_hit(self, tmp_path):
        cache = ResultCache(tmp_path, hot_entries=4)
        cache.put(result_for_seed(1))
        spec = result_for_seed(1).spec
        first = cache.get(spec)
        second = cache.get(spec)
        assert first is not None and second is not None
        assert first.stats == second.stats
        assert cache.hot_hits >= 1
        assert cache.hits == 2

    def test_hot_hit_matches_disk_read_exactly(self, tmp_path):
        writer = ResultCache(tmp_path, hot_entries=4)
        writer.put(result_for_seed(1))
        spec = result_for_seed(1).spec
        hot = writer.get(spec)           # served from the hot tier
        assert writer.hot_hits == 1
        cold = ResultCache(tmp_path).get(spec)   # forced disk read
        assert hot.stats == cold.stats
        assert hot.wall_time == cold.wall_time
        assert hot.from_cache and cold.from_cache

    def test_hot_hit_returns_the_callers_spec(self, tmp_path):
        cache = ResultCache(tmp_path, hot_entries=4)
        cache.put(result_for_seed(1))
        spec = result_for_seed(1).spec   # equal to the stored one, not it
        got = cache.get(spec)
        assert cache.hot_hits == 1
        assert got.spec is spec
        assert got.from_cache is True
        assert got.wall_time == 0.5

    def test_disk_hits_promote_into_the_hot_tier(self, tmp_path):
        ResultCache(tmp_path).put(result_for_seed(1))
        cache = ResultCache(tmp_path, hot_entries=4)
        spec = result_for_seed(1).spec
        cache.get(spec)
        assert cache.hot_misses == 1 and cache.hot_hits == 0
        cache.get(spec)
        assert cache.hot_hits == 1

    def test_lru_bound_holds(self, tmp_path):
        cache = ResultCache(tmp_path, hot_entries=2)
        for seed in (1, 2, 3):
            cache.put(result_for_seed(seed))
        assert cache.get(result_for_seed(3).spec) is not None
        assert cache.get(result_for_seed(2).spec) is not None
        assert cache.hot_hits == 2 and cache.hot_misses == 0
        # seed 1 was evicted from the tier but survives on disk
        assert cache.get(result_for_seed(1).spec) is not None
        assert cache.hot_hits == 2 and cache.hot_misses == 1

    def test_disabled_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(result_for_seed(1))
        cache.get(result_for_seed(1).spec)
        cache.get(result_for_seed(1).spec)
        assert cache.hits == 2
        assert cache.hot_hits == 0 and cache.hot_misses == 0

    def test_stats_expose_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path, hot_entries=4)
        cache.put(result_for_seed(1))
        cache.get(result_for_seed(1).spec)     # stored by the put
        cache.get(result_for_seed(2).spec)     # on no tier at all
        assert cache.hot_entries == 4
        assert cache.hot_hits == 1 and cache.hot_misses == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_clear_drops_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path, hot_entries=4)
        cache.put(result_for_seed(1))
        cache.clear()
        assert cache.get(result_for_seed(1).spec) is None
        assert cache.hot_hits == 0 and cache.hot_misses == 1


class TestBatchedWrites:
    """There is one write policy: every ``put`` is write-through."""

    def test_write_through_is_the_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(result_for_seed(1))
        assert len(list(tmp_path.glob("*/*.json"))) == 1


class TestEngineIntegration:
    def test_rerun_is_served_from_the_hot_tier(self, tmp_path):
        from repro.sweep import SweepEngine

        cache = ResultCache(tmp_path, hot_entries=8)
        engine = SweepEngine(cache=cache)
        specs = [RunSpec.for_run("water", protocol=p, scale=0.2, n_procs=2)
                 for p in ("BASIC", "P")]
        engine.run(specs)
        # every completed cell is on disk as soon as run() returns
        assert len(list(tmp_path.glob("*/*.json"))) == 2
        engine.run(specs)
        digest = engine.last_run_stats()
        assert digest["cache"] == 2
        assert digest["hot_hits"] == 2


def _engine_from_cli(root):
    import argparse

    from repro.experiments.runner import add_sweep_args, engine_from_args

    parser = argparse.ArgumentParser()
    add_sweep_args(parser)
    engine_from_args(parser.parse_args(["--cache-dir", str(root)]))


def _make_engine(root):
    from repro.api import make_engine

    make_engine(cache_dir=str(root))


def _sweep(root):
    from repro.sweep import sweep

    sweep([], cache_dir=root)


class TestDriverPolicy:
    """Every driver builds its cache the same way: the shared hot-tier
    size over write-through puts."""

    @pytest.mark.parametrize("build", [
        _engine_from_cli, _make_engine, _sweep,
    ], ids=["engine_from_args", "make_engine", "sweep"])
    def test_hot_tier_over_write_through(self, build, tmp_path, monkeypatch):
        from repro.sweep import HOT_ENTRIES

        built = []
        init = ResultCache.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(ResultCache, "__init__", recording_init)
        build(tmp_path)
        [cache] = built
        assert cache.root == tmp_path
        assert cache.hot_entries == HOT_ENTRIES == 512
        result = result_for_seed(1)
        cache.put(result)
        assert cache.path_for(result.spec).is_file()
        assert not hasattr(cache, "flush")
