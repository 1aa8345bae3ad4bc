"""MachineStats to_dict/from_dict round trips (the golden files' shape)."""

import json

import pytest

from repro.stats.counters import (
    STATS_SCHEMA_VERSION,
    CacheStats,
    MachineStats,
    NetworkStats,
    ProcessorStats,
)
from repro.sweep import RunSpec, execute_spec


def small_run() -> MachineStats:
    return execute_spec(RunSpec.for_run("water", protocol="P+CW",
                                        scale=0.2, n_procs=4))


class TestRoundTrip:
    def test_simulated_stats_round_trip_equal(self):
        stats = small_run()
        again = MachineStats.from_dict(stats.to_dict())
        # dataclass equality covers every counter of every sub-record
        assert again == stats
        assert again.execution_time == stats.execution_time
        assert again.network.by_type == stats.network.by_type

    def test_round_trip_survives_json(self):
        stats = small_run()
        again = MachineStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert again == stats

    def test_every_counter_preserved(self):
        stats = small_run()
        again = MachineStats.from_dict(stats.to_dict())
        for orig, copy in zip(stats.procs, again.procs):
            assert orig == copy
        for orig, copy in zip(stats.caches, again.caches):
            assert orig == copy
        assert stats.network == again.network

    def test_handmade_stats_round_trip(self):
        stats = MachineStats(
            procs=[ProcessorStats(busy=10, read_stall=3, finish_time=13)],
            caches=[CacheStats(cold_misses=2)],
            network=NetworkStats(messages=5, bytes=160,
                                 by_type={"READ_REQ": 5},
                                 peak_link_utilization=0.25),
            execution_time=13,
        )
        assert MachineStats.from_dict(stats.to_dict()) == stats


class TestVersioning:
    def test_version_stamp_present(self):
        assert small_run().to_dict()["version"] == STATS_SCHEMA_VERSION

    def test_wrong_version_rejected(self):
        payload = small_run().to_dict()
        payload["version"] = STATS_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            MachineStats.from_dict(payload)

    def test_unknown_counter_rejected(self):
        payload = small_run().to_dict()
        payload["procs"][0]["made_up_counter"] = 1
        with pytest.raises(ValueError):
            MachineStats.from_dict(payload)
