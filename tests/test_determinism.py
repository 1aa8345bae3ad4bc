"""Determinism under the synchronous fast path.

The issue loop and the inline event elisions must not introduce any
run-to-run or executor-dependent variation: the same spec must
produce bit-identical results in process, across processes, and in
the on-disk result cache.
"""

from conftest import canonical_cache_entry, tiny_config

from repro.config import SystemConfig
from repro.sweep import ResultCache, RunSpec, SweepEngine
from repro.system import System
from repro.workloads import build_workload

SPECS = [
    RunSpec.for_run("mp3d", protocol="P+CW+M", n_procs=4, scale=0.05),
    RunSpec.for_run("ocean", protocol="M", n_procs=4, scale=0.05),
]


class TestInProcess:
    def test_two_runs_identical(self):
        cfg = SystemConfig(n_procs=4).with_protocol("P+CW+M")
        streams = build_workload("mp3d", cfg, scale=0.05)
        first = System(cfg)
        stats1 = first.run(streams)
        second = System(cfg)
        stats2 = second.run(streams)
        assert first.sim.events_fired == second.sim.events_fired
        assert stats1.to_dict() == stats2.to_dict()

    def test_two_runs_identical_hitpath(self):
        cfg = tiny_config(n_procs=2)
        streams = build_workload("hitpath", cfg, scale=0.02)
        first = System(cfg)
        stats1 = first.run(streams)
        second = System(cfg)
        stats2 = second.run(streams)
        assert first.sim.events_fired == second.sim.events_fired
        assert stats1.to_dict() == stats2.to_dict()


class TestAcrossExecutors:
    def test_serial_and_process_cache_bytes_identical(self, tmp_path):
        serial_cache = ResultCache(tmp_path / "serial")
        SweepEngine(cache=serial_cache).run(SPECS)
        pooled_cache = ResultCache(tmp_path / "process")
        SweepEngine(max_workers=2, cache=pooled_cache).run(SPECS)
        for spec in SPECS:
            a = canonical_cache_entry(serial_cache.path_for(spec))
            b = canonical_cache_entry(pooled_cache.path_for(spec))
            assert a == b, f"executor-dependent result for {spec}"
