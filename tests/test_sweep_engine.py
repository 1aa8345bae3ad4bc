"""Tests for the sweep engine: executors, memoization, progress."""

from repro.sweep import (
    ProgressEvent,
    ResultCache,
    RunSpec,
    SweepEngine,
    execute_spec,
    run_spec,
    sweep,
)
from repro.sweep.engine import WarmContext, workload_key

#: a small matrix that exercises two protocols and two seeds
MATRIX = [
    RunSpec.for_run("water", protocol=proto, scale=0.2, n_procs=4, seed=seed)
    for proto in ("BASIC", "P+CW")
    for seed in (1994, 7)
]


class TestSerialExecutor:
    def test_results_in_spec_order(self):
        engine = SweepEngine()
        results = engine.run(MATRIX)
        assert [r.spec for r in results] == MATRIX
        assert all(r.execution_time > 0 for r in results)
        assert engine.cells == len(MATRIX)
        assert engine.misses == len(MATRIX) and engine.hits == 0

    def test_run_one_and_run_spec(self):
        a = run_spec(MATRIX[0])
        b = SweepEngine().run_one(MATRIX[0])
        assert a.stats == b.stats
        assert not a.from_cache

    def test_wall_time_recorded(self):
        result = run_spec(MATRIX[0])
        assert result.wall_time > 0


class TestProcessExecutor:
    def test_bitwise_identical_to_serial(self):
        serial = SweepEngine().run(MATRIX)
        pooled = SweepEngine(max_workers=2).run(MATRIX)
        assert [r.spec for r in pooled] == MATRIX
        for s, p in zip(serial, pooled):
            assert s.stats == p.stats


class TestMemoization:
    def test_second_run_served_from_cache(self, tmp_path):
        first = SweepEngine(cache=ResultCache(tmp_path))
        results1 = first.run(MATRIX)
        assert first.misses == len(MATRIX)

        second = SweepEngine(cache=ResultCache(tmp_path))
        results2 = second.run(MATRIX)
        assert second.misses == 0, "cache hit must not re-simulate"
        assert second.hits == len(MATRIX)
        assert all(r.from_cache for r in results2)
        for a, b in zip(results1, results2):
            assert a.stats == b.stats

    def test_partial_hits_fill_only_the_gaps(self, tmp_path):
        SweepEngine(cache=ResultCache(tmp_path)).run(MATRIX[:2])
        engine = SweepEngine(cache=ResultCache(tmp_path))
        results = engine.run(MATRIX)
        assert engine.hits == 2 and engine.misses == len(MATRIX) - 2
        assert [r.from_cache for r in results] == [True, True, False, False]

    def test_pooled_replay_hits_cache(self, tmp_path):
        sweep(MATRIX, jobs=2, cache_dir=tmp_path)
        engine = SweepEngine(max_workers=2, cache=ResultCache(tmp_path))
        results = engine.run(MATRIX)
        assert engine.misses == 0
        assert all(r.from_cache for r in results)


class TestWarmContext:
    """One built workload drives every protocol variant of a cell."""

    @staticmethod
    def _spec(**kw):
        kw.setdefault("app", "mp3d")
        kw.setdefault("n_procs", 4)
        kw.setdefault("scale", 0.05)
        return RunSpec.for_run(kw.pop("app"), **kw)

    def test_protocol_does_not_change_the_workload_key(self):
        basic = self._spec(protocol="BASIC")
        full = self._spec(protocol="P+CW+M")
        assert workload_key(basic) == workload_key(full)
        warm = WarmContext()
        streams = warm.streams_for(basic, basic.to_config())
        assert warm.streams_for(full, full.to_config()) is streams
        assert (warm.workload_hits, warm.workload_misses) == (1, 1)
        # memoized streams change nothing in the result
        assert execute_spec(full, warm) == execute_spec(full)

    def test_workload_identity_changes_the_key(self):
        base = workload_key(self._spec())
        assert workload_key(self._spec(seed=7)) != base
        assert workload_key(self._spec(scale=0.1)) != base
        assert workload_key(self._spec(app="water")) != base
        assert workload_key(self._spec(n_procs=8)) != base


class TestProgress:
    def test_hook_sees_every_cell_with_source(self, tmp_path):
        events: list[ProgressEvent] = []
        engine = SweepEngine(cache=ResultCache(tmp_path),
                             on_result=events.append)
        engine.run(MATRIX[:2])
        assert sorted(e.index for e in events) == [0, 1]
        assert {e.source for e in events} == {"sim"}
        assert all(e.total == 2 for e in events)
        assert all(e.wall_time > 0 for e in events)

        replay_events: list[ProgressEvent] = []
        replay = SweepEngine(cache=ResultCache(tmp_path),
                             on_result=replay_events.append)
        replay.run(MATRIX[:2])
        assert {e.source for e in replay_events} == {"cache"}

    def test_summary_line_mentions_counters(self):
        engine = SweepEngine()
        engine.run(MATRIX[:1])
        line = engine.summary()
        assert "cells=1" in line and "misses=1" in line and "hits=0" in line


class TestInFlightDedup:
    """Equal specs in one batch are simulated once."""

    def _counting_execute(self, monkeypatch):
        """Wrap execute_spec with a call counter."""
        from repro.sweep import engine as engine_mod

        calls = []
        real = engine_mod.execute_spec

        def counting(spec, warm=None):
            calls.append(spec.key())
            return real(spec, warm)

        monkeypatch.setattr(engine_mod, "execute_spec", counting)
        return calls

    def test_duplicates_within_one_batch_collapse(self, monkeypatch):
        calls = self._counting_execute(monkeypatch)
        engine = SweepEngine()
        spec = MATRIX[0]
        results = engine.run([spec, spec, spec])
        assert len(calls) == 1
        assert engine.deduped == 2
        assert results[0].stats == results[1].stats == results[2].stats

    def test_dedup_reports_progress_source(self, monkeypatch):
        self._counting_execute(monkeypatch)
        events = []
        engine = SweepEngine(on_result=events.append)
        engine.run([MATRIX[0], MATRIX[0]])
        assert sorted(e.source for e in events) == ["dedup", "sim"]
        assert [e.index for e in events] == [0, 1]
        assert engine.last_run_stats()["dedup"] == 1

    def test_distinct_specs_unaffected(self, monkeypatch):
        calls = self._counting_execute(monkeypatch)
        engine = SweepEngine()
        engine.run(MATRIX)
        assert len(calls) == len(MATRIX)
        assert engine.deduped == 0

    def test_pooled_batch_ships_each_key_once(self):
        a, b = MATRIX[0], MATRIX[1]
        events = []
        engine = SweepEngine(max_workers=2, on_result=events.append)
        results = engine.run([a, a, b])
        assert engine.last_run_stats()["executor"] == "process"
        # each "sim" event is one cell the pool ran
        assert sorted(e.source for e in events) == ["dedup", "sim", "sim"]
        assert engine.deduped == 1
        serial = SweepEngine().run([a, a, b])
        assert [r.spec for r in results] == [a, a, b]
        assert [r.stats.to_dict() for r in results] \
            == [r.stats.to_dict() for r in serial]
