"""Counter-for-counter parity of the processor issue loop's resume points.

``tests/golden/issue_loop_parity.json`` pins ``MachineStats.to_dict()``
and ``events_fired`` for the paths the RC, 8-processor extension grid
does not reach: the 16-processor hit path, where the loop suspends and
resumes once per op, and the blocking SC write and release waits.

Regenerate (only for an intentional behaviour change) with
``PYTHONPATH=src python tests/golden/regen_issue_loop_parity.py``.

The horizon tests drive machines through many bounded
``run(until=...)`` windows, the only way the elision sites' horizon
checks ever matter.  They demand the one-shot result, and that no
window ends with the clock or a finished processor past its horizon.
Dropping the horizon check of any one elision site (the issue loop,
``read_at``'s two, ``_drain_head``'s, ``_deliver_remote``'s) fails at
least one of the cells.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.system
from repro.config import Consistency, SystemConfig
from repro.sim.engine import Simulator
from repro.system import System
from repro.workloads import build_workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "issue_loop_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=str)
def test_issue_loop_matches_golden(cell: str) -> None:
    expected = GOLDEN[cell]
    cfg = SystemConfig(
        n_procs=expected["n_procs"],
        consistency=Consistency[expected["consistency"]],
    ).with_protocol(expected["protocol"])
    system = System(cfg)
    stats = system.run(
        build_workload(expected["app"], cfg, scale=expected["scale"])
    )

    assert stats.to_dict() == expected["stats"]
    assert system.sim.events_fired == expected["events_fired"]


#: the window every bounded ``run`` call advances by; prime, so the
#: horizons fall at every phase of the machine's timing
WINDOW = 37


class WindowedSimulator(Simulator):
    """Runs to completion as a chain of ``run(until=now + WINDOW)``.

    Records every window whose run left the clock past its horizon: an
    elision site that advanced ``now`` across it.
    """

    def run(self, until=None, max_events=None):
        self.overshoots = []
        while self.pending_events:
            horizon = self.now + WINDOW
            super().run(until=horizon)
            if self.now != horizon:
                self.overshoots.append((horizon, self.now))


@pytest.mark.parametrize(
    "app,protocol,n_procs",
    [
        ("hitpath", "BASIC", 1),
        ("lu", "BASIC", 1),
        ("hitpath", "BASIC", 16),
        ("mp3d", "P+CW+M", 8),
        ("ocean", "P+M", 8),
    ],
)
def test_bounded_windows_match_one_shot_run(
    monkeypatch, app, protocol, n_procs
):
    cfg = SystemConfig(n_procs=n_procs).with_protocol(protocol)
    streams = build_workload(app, cfg, scale=0.05)
    one_shot = System(cfg)
    expected = one_shot.run(streams).to_dict()

    # a processor that finishes inline must not have run past the
    # horizon of the window it finished in (the issue loop's own
    # horizon check; a 1-processor stream, which elides nearly every
    # event, trips this one)
    overruns = []

    def proc_finished(system, node_id):
        finish = system.stats.procs[node_id].finish_time
        if finish > system.sim._until:
            overruns.append((node_id, finish, system.sim._until))
        system._finished += 1

    monkeypatch.setattr(repro.system, "Simulator", WindowedSimulator)
    monkeypatch.setattr(System, "_proc_finished", proc_finished)
    windowed = System(cfg)
    assert isinstance(windowed.sim, WindowedSimulator)
    assert windowed.run(streams).to_dict() == expected
    assert windowed.sim.events_fired == one_shot.sim.events_fired
    assert overruns == []
    assert windowed.sim.overshoots == []
