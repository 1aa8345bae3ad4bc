"""Tests for the benchmark regression harness (``repro bench``)."""

import json

import pytest

from repro.bench import (
    QUICK_MATRIX,
    SCHEMA_VERSION,
    cell_key,
    compare,
    load_result,
    run_cell,
    run_matrix,
    unmatched,
    write_result,
)
from repro.cli import build_parser

#: a sub-second matrix for tests: the hot-path microbenchmark and one
#: tiny contended paper cell
TINY_MATRIX = (
    ("hitpath", "BASIC", 1, 0.01),
    ("mp3d", "P+CW+M", 4, 0.05),
)


class TestRunCell:
    def test_cell_fields(self):
        cell = run_cell("hitpath", "BASIC", 1, 0.01, repeat=1)
        assert cell["app"] == "hitpath"
        assert cell["protocol"] == "BASIC"
        assert cell["n_procs"] == 1
        assert cell["events"] > 0
        assert cell["wall_s"] > 0
        assert cell["events_per_sec"] == pytest.approx(
            cell["events"] / cell["wall_s"], rel=1e-3
        )
        assert cell["execution_time"] > 0

    def test_events_deterministic_across_runs(self):
        a = run_cell("mp3d", "P+CW+M", 4, 0.05, repeat=1)
        b = run_cell("mp3d", "P+CW+M", 4, 0.05, repeat=2)
        assert a["events"] == b["events"]
        assert a["execution_time"] == b["execution_time"]

    def test_backend_recorded(self):
        cell = run_cell("hitpath", "BASIC", 1, 0.01, repeat=1)
        assert cell["backend"] == "event"

    def test_replay_backend(self, tmp_path, monkeypatch):
        from repro.sim.backend import TRACE_DIR_ENV

        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        cell = run_cell("mp3d", "BASIC", 4, 0.05, backend="replay",
                        repeat=1)
        assert cell["backend"] == "replay"
        assert cell["events"] > 0          # replayed references
        assert cell["execution_time"] > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            run_cell("hitpath", "BASIC", 1, 0.01, backend="nope")


class TestRunMatrix:
    def test_schema(self, tmp_path):
        doc = run_matrix(TINY_MATRIX, repeat=1)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert isinstance(doc["revision"], str) and doc["revision"]
        assert doc["repeat"] == 1
        assert len(doc["cells"]) == len(TINY_MATRIX)
        totals = doc["totals"]
        assert totals["events"] == sum(c["events"] for c in doc["cells"])
        assert totals["wall_s"] == pytest.approx(
            sum(c["wall_s"] for c in doc["cells"]), rel=1e-3
        )
        # round-trips through the writer/loader unchanged
        out = tmp_path / "bench.json"
        write_result(doc, out)
        assert load_result(out) == json.loads(out.read_text())

    def test_load_rejects_unknown_schema(self, tmp_path):
        out = tmp_path / "bad.json"
        out.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError, match="schema_version"):
            load_result(out)

    def test_quick_matrix_covers_every_extension(self):
        protos = {row[1] for row in QUICK_MATRIX}
        assert {"P", "CW", "M"} <= {
            part for p in protos for part in p.split("+")
        }
        apps = {row[0] for row in QUICK_MATRIX}
        assert "hitpath" in apps  # the cell the fast path targets

    def test_quick_matrix_has_a_replay_cell(self):
        tiers = {row[4] if len(row) > 4 else "event" for row in QUICK_MATRIX}
        assert "replay" in tiers

    def test_backend_override_forces_tier(self):
        doc = run_matrix((("hitpath", "BASIC", 1, 0.01, "replay"),),
                         repeat=1, backend="event")
        assert [c["backend"] for c in doc["cells"]] == ["event"]


def _doc(cells):
    return {"schema_version": SCHEMA_VERSION, "cells": cells}


def _cell(app="mp3d", proto="BASIC", evps=1000.0, backend="event"):
    return {
        "app": app, "protocol": proto, "n_procs": 16, "scale": 0.3,
        "backend": backend, "events": 100, "wall_s": 0.1,
        "events_per_sec": evps,
    }


class TestCompare:
    def test_no_regression(self):
        base = _doc([_cell(evps=1000)])
        cur = _doc([_cell(evps=900)])
        assert compare(cur, base, threshold=2.0) == []

    def test_regression_detected(self):
        base = _doc([_cell(evps=1000)])
        cur = _doc([_cell(evps=400)])
        regs = compare(cur, base, threshold=2.0)
        assert len(regs) == 1
        key, cur_evps, base_evps, slowdown = regs[0]
        assert key == cell_key(_cell())
        assert (cur_evps, base_evps) == (400, 1000)
        assert slowdown == 2.5

    def test_threshold_is_respected(self):
        base = _doc([_cell(evps=1000)])
        cur = _doc([_cell(evps=400)])
        assert compare(cur, base, threshold=3.0) == []

    def test_unmatched_cells_ignored(self):
        base = _doc([_cell(app="water", evps=1000)])
        cur = _doc([_cell(app="mp3d", evps=1)])
        assert compare(cur, base) == []

    def test_faster_is_never_a_regression(self):
        base = _doc([_cell(evps=100)])
        cur = _doc([_cell(evps=10_000)])
        assert compare(cur, base) == []

    def test_backend_is_part_of_cell_identity(self):
        # a slow replay cell must not be checked against the event
        # baseline of the same (app, protocol, n_procs, scale)
        base = _doc([_cell(evps=1000)])
        cur = _doc([_cell(evps=1, backend="replay")])
        assert compare(cur, base) == []

    def test_v1_cells_without_backend_mean_event(self):
        v1 = dict(_cell(evps=1000))
        del v1["backend"]
        assert cell_key(v1) == cell_key(_cell(evps=1000))


class TestUnmatched:
    def test_all_matched(self):
        doc = _doc([_cell()])
        assert unmatched(doc, doc) == ([], [])

    def test_one_sided_cells_listed(self):
        base = _doc([_cell(), _cell(app="water")])
        cur = _doc([_cell(), _cell(backend="replay")])
        only_cur, only_base = unmatched(cur, base)
        assert only_cur == [cell_key(_cell(backend="replay"))]
        assert only_base == [cell_key(_cell(app="water"))]


class TestSweepSuite:
    def test_sweep_cell_schema_compatible(self, tmp_path):
        from repro.bench import run_sweep_cell
        from repro.sweep import RunSpec

        specs = [RunSpec.for_run("water", protocol=p, n_procs=2, scale=0.2)
                 for p in ("BASIC", "P")]
        cell = run_sweep_cell("tiny", specs, repeat=1)
        assert cell["backend"] == "sweep"
        assert cell["events"] == len(specs)
        assert cell["wall_s"] > 0
        assert cell["events_per_sec"] == pytest.approx(
            len(specs) / cell["wall_s"], rel=1e-3
        )
        assert cell["execution_time"] == 0

    def test_sweep_identity_never_collides_with_simulator_cells(self):
        from repro.sim.backend import BACKEND_NAMES

        assert "sweep" not in BACKEND_NAMES
        sim = _cell(backend="event")
        swp = dict(sim, backend="sweep")
        assert cell_key(sim) != cell_key(swp)

    def test_warm_cell_measures_result_serving(self, tmp_path):
        from repro.bench import run_sweep_cell
        from repro.sweep import RunSpec

        specs = [RunSpec.for_run("water", protocol=p, n_procs=2, scale=0.2)
                 for p in ("BASIC", "P")]
        cold = run_sweep_cell("cold", specs, repeat=1, cold=True)
        warm = run_sweep_cell("warm", specs, repeat=1, cold=False)
        assert warm["wall_s"] < cold["wall_s"]

    def test_speedups_reports_matched_ratio(self):
        from repro.bench import speedups

        base = _doc([_cell(evps=100)])
        cur = _doc([_cell(evps=250)])
        assert speedups(cur, base) == [(cell_key(_cell()), 2.5)]


class TestCli:
    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.full is False
        assert args.repeat == 3
        assert args.threshold == 2.0
        assert args.out is None and args.check is None
        assert args.backend is None
        assert args.suite == "cells"
        assert not hasattr(args, "pool")

    def test_bench_parser_options(self):
        args = build_parser().parse_args(
            ["bench", "--full", "--repeat", "1", "--out", "x.json",
             "--check", "base.json", "--threshold", "1.5"]
        )
        assert args.full and args.repeat == 1
        assert args.out == "x.json" and args.check == "base.json"
        assert args.threshold == 1.5
