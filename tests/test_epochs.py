"""Tests for epoch (time-series) statistics."""

import json
import sys
from pathlib import Path

import pytest
from conftest import pad_streams, tiny_config

from repro.stats.epochs import Epoch, EpochSampler, sparkline
from repro.system import System
from repro.workloads import build_workload

GOLDEN_DIR = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))
from regen_epoch_parity import CELLS, cell_name, sample  # noqa: E402

EPOCH_GOLDEN = json.loads((GOLDEN_DIR / "epoch_parity.json").read_text())


def run_sampled(streams, interval=100, cfg=None):
    system = System(cfg or tiny_config())
    sampler = EpochSampler.attach(system, interval=interval)
    system.run(streams)
    return system, sampler


class TestSampler:
    def test_snapshots_accumulate(self):
        ops = [("read", i * 32) for i in range(30)]
        _system, sampler = run_sampled(pad_streams([ops], 4))
        snaps = sampler.snapshots
        assert len(snaps) >= 2
        assert snaps[0].time == 0
        # cumulative counters are monotone
        for a, b in zip(snaps, snaps[1:]):
            assert b.time > a.time
            assert b.shared_refs >= a.shared_refs
            assert b.cold >= a.cold

    def test_epochs_are_differences(self):
        ops = [("read", i * 32) for i in range(30)]
        system, sampler = run_sampled(pad_streams([ops], 4))
        epochs = sampler.epochs()
        total_cold = sum(e.cold for e in epochs)
        measured = sum(c.cold_misses for c in system.stats.caches)
        assert total_cold == measured

    def test_sampling_stops_after_completion(self):
        ops = [("think", 50)]
        system, sampler = run_sampled(pad_streams([ops], 4), interval=10)
        # the simulation quiesced: no runaway sampling events
        assert system.sim.pending_events == 0

    def test_trailing_empty_epochs_trimmed(self):
        ops = [("read", 0), ("think", 5000)]
        _system, sampler = run_sampled(pad_streams([ops], 4), interval=100)
        epochs = sampler.epochs()
        assert epochs[-1].shared_refs > 0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            EpochSampler(System(tiny_config()), interval=0)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: cell_name(*c))
def test_snapshots_match_golden(cell):
    """Every tick reads the counters exactly as pinned: the processors'
    reference counts and the caches' miss counters are current between
    ops, not only when the run ends."""
    assert sample(*cell) == EPOCH_GOLDEN[cell_name(*cell)]


class TestEpochRates:
    def test_rates(self):
        e = Epoch(0, 100, shared_refs=200, cold=2, replacement=1, coherence=4)
        assert e.cold_miss_rate == 1.0
        assert e.replacement_miss_rate == 0.5
        assert e.coherence_miss_rate == 2.0

    def test_empty_epoch_rates_are_zero(self):
        e = Epoch(0, 100, shared_refs=0, cold=0, replacement=0, coherence=0)
        assert e.cold_miss_rate == 0.0


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_capped(self):
        assert len(sparkline([1.0] * 500, width=60)) == 60

    def test_peak_uses_tallest_glyph(self):
        line = sparkline([0.0, 1.0])
        assert line[-1] == "@"
        assert line[0] == " "

    def test_all_zero(self):
        assert sparkline([0.0, 0.0]) == "  "


class TestPaperClaim:
    def test_direct_methods_keep_missing_cold(self):
        """§3.1: LU's cold rate persists; Ocean's collapses."""

        def halves(app):
            cfg = tiny_config(n_procs=16)
            system = System(cfg)
            sampler = EpochSampler.attach(system, interval=4000)
            system.run(build_workload(app, cfg, scale=0.7))
            cold = [e.cold_miss_rate for e in sampler.epochs()]
            half = len(cold) // 2 or 1
            first = sum(cold[:half]) / max(1, len(cold[:half]))
            second = sum(cold[half:]) / max(1, len(cold[half:]))
            return first, second

        lu_first, lu_second = halves("lu")
        oc_first, oc_second = halves("ocean")
        # LU keeps taking cold misses late into the run
        assert lu_second > 0.3 * lu_first
        # Ocean's cold misses are concentrated in the first sweeps
        assert oc_second < 0.3 * oc_first
