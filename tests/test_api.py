"""Tests for the high-level convenience API."""

import pytest

from repro import api
from repro.config import Consistency


class TestRunApp:
    def test_summary_fields(self):
        s = api.run_app("water", protocol="P", scale=0.2, n_procs=4)
        assert s.app == "water"
        assert s.protocol == "P"
        assert s.consistency == "RC"
        assert s.execution_time > 0
        assert 0 <= s.busy_fraction <= 1
        assert 0 <= s.read_stall_fraction <= 1
        assert s.cold_miss_rate >= 0
        assert s.network_bytes >= 0
        assert s.stats.execution_time == s.execution_time

    def test_fractions_sum_to_one(self):
        s = api.run_app("water", scale=0.2, n_procs=4)
        total = (
            s.busy_fraction
            + s.read_stall_fraction
            + s.write_stall_fraction
            + s.acquire_stall_fraction
        )
        # release stall is the only missing component under RC
        assert total <= 1.001

    def test_sc_runs(self):
        s = api.run_app(
            "water", protocol="M", consistency=Consistency.SC,
            scale=0.2, n_procs=4,
        )
        assert s.consistency == "SC"

    def test_deterministic(self):
        a = api.run_app("mp3d", scale=0.2, n_procs=4, seed=5)
        b = api.run_app("mp3d", scale=0.2, n_procs=4, seed=5)
        assert a.execution_time == b.execution_time


class TestCompareProtocols:
    def test_ranking_sorted(self):
        ranking = api.compare_protocols(
            "water", protocols=("BASIC", "P", "CW"), scale=0.2, n_procs=4
        )
        times = [s.execution_time for s in ranking]
        assert times == sorted(times)

    def test_basic_always_included(self):
        ranking = api.compare_protocols(
            "water", protocols=("P",), scale=0.2, n_procs=4
        )
        assert ranking["BASIC"].protocol == "BASIC"

    def test_registry_combo_resolves(self):
        # sloppy spellings canonicalize through the extension
        # registry, so they work anywhere the paper's eight
        # combinations do
        ranking = api.compare_protocols(
            "water", protocols=("BASIC", "m+p"), scale=0.2, n_procs=4
        )
        assert ranking["P+M"].protocol == "P+M"

    def test_relative_time(self):
        ranking = api.compare_protocols(
            "water", protocols=("BASIC", "P+CW"), scale=0.2, n_procs=4
        )
        assert ranking.relative_time("BASIC") == 1.0
        assert ranking.relative_time("P+CW") > 0

    def test_unknown_protocol_lookup(self):
        ranking = api.compare_protocols(
            "water", protocols=("BASIC",), scale=0.2, n_procs=4
        )
        with pytest.raises(KeyError):
            ranking["P+CW+M"]

    def test_best(self):
        ranking = api.compare_protocols(
            "lu", protocols=("BASIC", "P"), scale=0.3, n_procs=4
        )
        assert ranking.best().protocol == "P"

    def test_speedups_normalized_to_baseline(self):
        ranking = api.compare_protocols(
            "water", protocols=("BASIC", "P", "CW"), scale=0.2, n_procs=4
        )
        rel = ranking.speedups()
        assert set(rel) == {"BASIC", "P", "CW"}
        assert rel["BASIC"] == pytest.approx(1.0)
        for proto, value in rel.items():
            assert value == pytest.approx(ranking.relative_time(proto))

    def test_custom_baseline(self):
        ranking = api.compare_protocols(
            "water", protocols=("BASIC", "P"), baseline="P",
            scale=0.2, n_procs=4,
        )
        assert ranking.baseline == "P"
        assert ranking.relative_time("P") == pytest.approx(1.0)
        assert ranking.baseline_summary().protocol == "P"

    def test_speedup_over(self):
        ranking = api.compare_protocols(
            "lu", protocols=("BASIC", "P"), scale=0.3, n_procs=4
        )
        basic, p = ranking["BASIC"], ranking["P"]
        assert p.speedup_over(basic) == pytest.approx(
            basic.execution_time / p.execution_time
        )
        assert p.speedup_over(basic) > 1.0
        assert basic.speedup_over(basic) == pytest.approx(1.0)


class TestSerialization:
    def test_summary_to_dict_digest(self):
        s = api.run_app("water", protocol="P", scale=0.2, n_procs=4)
        d = s.to_dict()
        assert d["app"] == "water"
        assert d["protocol"] == "P"
        assert d["execution_time"] == s.execution_time
        from repro.sweep import SPEC_SCHEMA_VERSION

        assert d["spec"]["v"] == SPEC_SCHEMA_VERSION
        assert "stats" not in d
        import json

        json.dumps(d)  # must be JSON-able as-is

    def test_from_result_and_from_stats_agree(self):
        """Both constructors route through one path -> identical digests."""
        from repro.sweep import RunSpec, run_spec

        spec = RunSpec.for_run("water", protocol="P", scale=0.2, n_procs=4)
        result = run_spec(spec)
        a = api.RunSummary.from_result(result)
        b = api.RunSummary.from_stats("water", spec.to_config(), result.stats)
        da, db = a.to_dict(), b.to_dict()
        da.pop("spec"), db.pop("spec")  # from_stats has no spec
        assert da == db

    def test_summary_has_release_and_replacement(self):
        s = api.run_app("water", scale=0.2, n_procs=4)
        assert s.release_stall_fraction >= 0
        assert s.replacement_miss_rate >= 0


class TestEngineIntegration:
    def test_run_app_through_cached_engine(self, tmp_path):
        from repro.sweep import ResultCache, SweepEngine

        engine = SweepEngine(cache=ResultCache(tmp_path))
        a = api.run_app("water", scale=0.2, n_procs=4, engine=engine)
        b = api.run_app("water", scale=0.2, n_procs=4, engine=engine)
        assert engine.hits == 1 and engine.misses == 1
        assert a.execution_time == b.execution_time
        assert a.spec == b.spec

    def test_summary_carries_spec(self):
        s = api.run_app("water", protocol="P", scale=0.2, n_procs=4, seed=3)
        assert s.spec is not None
        assert s.spec.seed == 3
        assert s.spec.protocol == "P"
