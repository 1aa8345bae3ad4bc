"""Deterministic randomized-configuration sweep.

A seeded version of the development fuzzer: random reference streams
run on randomized machine configurations spanning every knob the
library exposes -- protocols, consistency models, bounded caches,
small write buffers, mesh links, competitive thresholds, initial
prefetch degrees -- and every run must complete and
satisfy the global coherence invariants.
"""

import random

import pytest

from repro.core.invariants import check_all
from repro.system import System
from repro.verify.fuzz import fuzz_stream, random_config


@pytest.mark.parametrize("trial", range(20))
def test_randomized_configuration_matrix(trial):
    rng = random.Random(7000 + trial)
    cfg = random_config(rng)
    system = System(cfg)
    streams = [
        fuzz_stream(i, trial * 977 + i) for i in range(cfg.n_procs)
    ]
    system.run(streams, max_events=5_000_000)
    check_all(system)
    # sanity on the statistics of every run
    stats = system.stats
    assert stats.execution_time > 0
    for p in stats.procs:
        assert p.total_time == p.finish_time
    total = sum(c.demand_read_misses for c in stats.caches)
    parts = sum(
        c.cold_misses + c.replacement_misses + c.coherence_misses
        for c in stats.caches
    )
    assert total == parts
