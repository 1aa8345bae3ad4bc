"""Replay-tier fidelity against the event tier's 16-cell golden grid.

The replay contract (see ``docs/engine.md``): ``replay`` is exact on
the reference stream and on replacement misses, *faithful but
order-sensitive* on miss classification and message traffic, and
*approximate* on cycles.  The tolerances below are the calibrated
worst case over the golden grid plus margin; the same numbers are
documented in ``docs/engine.md``.  If one trips, either the replay
model regressed or the event engine's behaviour moved -- both are
worth a loud failure.  (The event tier itself is pinned bitwise to the
grid by ``test_extension_parity.py``.)

Replay determinism is also pinned: recording is byte-stable (see
``test_refstream.py``) and replaying through a process pool must give
bitwise the statistics of a serial replay.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.backend import TRACE_DIR_ENV, get_backend
from repro.sweep import RunSpec, SweepEngine

GOLDEN_PATH = Path(__file__).parent / "golden" / "extension_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: replay-tier tolerances vs the event engine (calibrated worst case
#: over the golden grid, with margin; documented in docs/engine.md).
COLD_ABS = 4            # measured worst: 2
DEMAND_REL = 0.12       # measured worst: 7.7%
COHERENCE_ABS = 30      # measured worst: 19 (mp3d/CW+M)
MESSAGES_REL = 0.25     # measured worst: 18.2% (mp3d/CW+M)
BYTES_REL = 0.12        # measured worst: 6.8%
TIME_REL = 0.45         # measured worst: 33.7% (always optimistic)


def _spec(expected: dict, backend: str) -> RunSpec:
    return RunSpec.for_run(
        expected["app"], protocol=expected["protocol"],
        n_procs=expected["n_procs"], scale=expected["scale"],
        backend=backend,
    )


def _total(stats_dict: dict, field: str) -> int:
    return sum(c[field] for c in stats_dict["caches"])


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=str)
def test_replay_within_documented_tolerances(
    cell: str, trace_dir, monkeypatch
) -> None:
    expected = GOLDEN[cell]["stats"]
    monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
    stats = get_backend("replay").execute(_spec(GOLDEN[cell], "replay"))
    got = stats.to_dict()

    # exact tier: the replayed reference stream is the recorded one
    for got_p, exp_p in zip(got["procs"], expected["procs"]):
        assert got_p["shared_reads"] == exp_p["shared_reads"]
        assert got_p["shared_writes"] == exp_p["shared_writes"]
    assert _total(got, "replacement_misses") == \
        _total(expected, "replacement_misses")

    # faithful tier: misses and traffic, order-sensitive
    assert abs(_total(got, "cold_misses")
               - _total(expected, "cold_misses")) <= COLD_ABS
    exp_dm = _total(expected, "demand_read_misses")
    assert abs(_total(got, "demand_read_misses") - exp_dm) <= \
        max(2, DEMAND_REL * exp_dm)
    assert abs(_total(got, "coherence_misses")
               - _total(expected, "coherence_misses")) <= COHERENCE_ABS
    exp_msgs = expected["network"]["messages"]
    assert abs(got["network"]["messages"] - exp_msgs) <= \
        MESSAGES_REL * exp_msgs
    exp_bytes = expected["network"]["bytes"]
    assert abs(got["network"]["bytes"] - exp_bytes) <= BYTES_REL * exp_bytes

    # approximate tier: cycles (contention-free, so always optimistic)
    exp_time = expected["execution_time"]
    assert got["execution_time"] <= exp_time
    assert got["execution_time"] >= (1 - TIME_REL) * exp_time


class TestReplayDeterminism:
    SPECS = (
        ("mp3d", "P+CW+M"),
        ("pthor", "CW+M"),
    )

    def _specs(self):
        return [
            RunSpec.for_run(app, protocol=proto, n_procs=8, scale=0.25,
                            backend="replay")
            for app, proto in self.SPECS
        ]

    def test_serial_replay_is_stable(self, trace_dir, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
        a = [r.stats.to_dict() for r in SweepEngine().run(self._specs())]
        b = [r.stats.to_dict() for r in SweepEngine().run(self._specs())]
        assert a == b

    def test_process_pool_matches_serial(self, trace_dir, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
        serial = [
            r.stats.to_dict() for r in SweepEngine().run(self._specs())
        ]
        pooled = [
            r.stats.to_dict()
            for r in SweepEngine(executor="process", max_workers=2).run(
                self._specs()
            )
        ]
        assert pooled == serial
