"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import (
    figure2,
    figure3,
    figure4,
    report,
    sensitivity,
    table2,
    table3,
)
from repro.sweep import SweepEngine


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "mp3d"
        assert args.protocol == "BASIC"
        assert args.consistency == "RC"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "fft"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mesh_flag(self):
        args = build_parser().parse_args(["run", "--mesh", "16"])
        assert args.mesh == 16

    def test_extensions_flag(self):
        args = build_parser().parse_args(["run", "--extensions", "p,m"])
        assert args.extensions == "p,m"
        args = build_parser().parse_args(
            ["compare", "--extensions", "basic", "pf+m"]
        )
        assert args.extensions == ["basic", "pf+m"]


class TestCommands:
    def test_run_prints_summary(self, capsys):
        rc = main(["run", "--app", "water", "--scale", "0.2",
                   "--protocol", "P", "--procs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "coherence miss %" in out

    def test_run_under_sc(self, capsys):
        rc = main(["run", "--app", "water", "--scale", "0.2",
                   "--consistency", "SC", "--procs", "4"])
        assert rc == 0
        assert "write stall" in capsys.readouterr().out

    def test_run_on_mesh(self, capsys):
        rc = main(["run", "--app", "water", "--scale", "0.2",
                   "--mesh", "32", "--procs", "4"])
        assert rc == 0

    def test_compare_ranks_protocols(self, capsys):
        rc = main([
            "compare", "--app", "water", "--scale", "0.2", "--procs", "4",
            "--protocols", "BASIC", "P",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BASIC" in out and "P" in out
        assert "rel. time" in out

    def test_run_with_extensions_combo(self, capsys):
        rc = main(["run", "--app", "water", "--scale", "0.2",
                   "--procs", "4", "--extensions", "p,m"])
        assert rc == 0
        assert "water / P+M" in capsys.readouterr().out

    def test_compare_with_extension_combos(self, capsys):
        rc = main([
            "compare", "--app", "water", "--scale", "0.2", "--procs", "4",
            "--extensions", "BASIC", "m+cw", "--no-cache",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CW+M" in out  # canonicalized combo name

    def test_list_extensions(self, capsys):
        rc = main(["list-extensions"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("P", "CW", "M"):
            assert name in out
        assert "PrefetchConfig" in out

    def test_analyze_census(self, capsys):
        rc = main(["analyze", "--app", "mp3d", "--scale", "0.2",
                   "--procs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "migratory" in out
        assert "private" in out

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "w.trace"
        rc = main(["trace", "--app", "water", "--scale", "0.2",
                   "--procs", "4", "--out", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        rc = main(["run", "--app", "water", "--procs", "4",
                   "--trace-file", str(out_file)])
        assert rc == 0

    def test_experiments_table1(self, capsys):
        rc = main(["experiments", "table1"])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out


class TestCliChoices:
    """No CLI takes an option that selects a removed configuration."""

    @pytest.mark.parametrize("flag", [
        ["--pool", "persistent"], ["--hot-cache-entries", "0"],
        ["--backend", "event"], ["--trace-dir", "traces"],
    ], ids=["pool", "hot-cache-entries", "backend", "trace-dir"])
    @pytest.mark.parametrize("argv", [
        ["compare"], figure2, ["run"], report, sensitivity,
    ], ids=["compare", "figure2", "run", "report", "sensitivity"])
    def test_removed_orchestration_flags_rejected(self, argv, flag, capsys):
        """One pool, one hot-tier size and one execution tier: no CLI
        selects another."""
        with pytest.raises(SystemExit) as exc:
            if isinstance(argv, list):
                main([*argv, *flag])
            else:
                argv.main(flag)
        assert exc.value.code == 2          # argparse usage error
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    @pytest.mark.parametrize("command", ["serve", "submit"])
    def test_no_sweep_service_subcommands(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestBench:
    """``repro bench ARGS`` is ``benchmarks/e2e/run.py ARGS``."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_compare_forwards_to_run_py(self, capfd):
        rounds = [str(self.ROOT / "benchmarks" / f"ROUNDS_{rev}.json")
                  for rev in ("46e976f", "fe3eddd")]
        assert main(["bench", "compare", *rounds]) == 0
        rows = capfd.readouterr().out.splitlines()
        spec = json.loads((self.ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        assert [row.split()[0] for row in rows] == workloads

    def test_missing_run_py_is_exit_2(self, tmp_path, monkeypatch, capfd):
        missing = tmp_path / "run.py"
        monkeypatch.setattr(cli, "BENCH_RUN", missing)
        assert main(["bench", "rounds", "--smoke"]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert str(missing) in err
        assert "Traceback" not in err


#: every parser that takes ``--scale``: the seven experiment drivers,
#: the subcommands built by ``cli.py``'s ``common()`` and ``experiments``
SCALE_PARSERS = {
    "figure2": figure2, "figure3": figure3, "figure4": figure4,
    "table2": table2, "table3": table3, "sensitivity": sensitivity,
    "report": report,
    "run": ["run"], "compare": ["compare"], "analyze": ["analyze"],
    "trace": ["trace"], "experiments": ["experiments", "figure2"],
}
#: every parser that takes ``--jobs`` (``add_sweep_args``)
JOBS_PARSERS = {
    "figure2": figure2, "figure3": figure3, "figure4": figure4,
    "table2": table2, "table3": table3, "sensitivity": sensitivity,
    "report": report, "compare": ["compare"],
    "experiments": ["experiments", "figure2"],
}

#: every parser that takes ``--procs`` (``cli.py``'s ``common()``)
PROCS_PARSERS = {
    "run": ["run"], "compare": ["compare"], "analyze": ["analyze"],
    "trace": ["trace"],
}


def _usage_error(argv, extra, capsys) -> str:
    """Parse ``extra`` with one parser; it must exit 2 with a usage
    line and no traceback.  Returns stderr."""
    with pytest.raises(SystemExit) as exc:
        if isinstance(argv, list):
            main([*argv, *extra])
        else:
            argv.main(extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err
    return err


class TestBadNumbers:
    """A bad ``--scale``, ``--jobs`` or ``--procs`` is a usage error,
    never a traceback or a silent fallback."""

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("name", sorted(SCALE_PARSERS))
    def test_bad_scale_is_a_usage_error(self, name, value, capsys):
        # ``=`` keeps argparse from reading "-1" as an option
        err = _usage_error(SCALE_PARSERS[name], [f"--scale={value}"], capsys)
        assert "argument --scale: must be finite and > 0" in err

    def test_non_number_scale_is_a_usage_error(self, capsys):
        err = _usage_error(figure2, ["--scale", "big"], capsys)
        assert "argument --scale: invalid float value: 'big'" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("name", sorted(JOBS_PARSERS))
    def test_jobs_below_one_is_a_usage_error(self, name, value, capsys):
        err = _usage_error(JOBS_PARSERS[name], [f"--jobs={value}"], capsys)
        assert "argument --jobs: must be >= 1" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("name", sorted(PROCS_PARSERS))
    def test_procs_below_one_is_a_usage_error(self, name, value, capsys):
        err = _usage_error(PROCS_PARSERS[name], [f"--procs={value}"], capsys)
        assert "argument --procs: must be >= 1" in err

    def test_good_values_still_parse(self):
        args = build_parser().parse_args(
            ["experiments", "figure2", "--scale", "0.05", "--jobs", "2"]
        )
        assert (args.scale, args.jobs) == (0.05, 2)
        assert build_parser().parse_args(["run", "--procs", "1"]).procs == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_engine_refuses_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            SweepEngine(max_workers=workers)


class TestReportOut:
    """``EXPERIMENTS.md`` holds the report at scale 1.0 and the default
    seed; a report at any other scale or seed must name its own file."""

    @pytest.fixture
    def stub_report(self, monkeypatch, tmp_path):
        """Run in an empty directory, with a report that simulates
        nothing; returns the scales the report was generated at."""
        monkeypatch.chdir(tmp_path)
        generated = []

        def generate(scale=1.0, engine=None, seed=0):
            generated.append(scale)
            return f"report at {scale} seed {seed}\n"

        monkeypatch.setattr(report, "generate", generate)
        return generated

    @pytest.mark.parametrize("argv", [
        report, ["experiments", "report"],
    ], ids=["report", "experiments-report"])
    @pytest.mark.parametrize("extra", [
        ["--scale", "0.05"], ["--seed", "7"], ["--scale", "2", "--seed", "7"],
    ], ids=["scale", "seed", "both"])
    def test_other_scale_or_seed_needs_out(self, argv, extra, stub_report,
                                           tmp_path, capsys):
        err = _usage_error(argv, [*extra, "--no-cache"], capsys)
        assert "--out is required" in err
        assert stub_report == []                    # no cell ran
        assert not (tmp_path / "EXPERIMENTS.md").exists()

    @pytest.mark.parametrize("argv", [
        report, ["experiments", "report"],
    ], ids=["report", "experiments-report"])
    def test_out_is_written(self, argv, stub_report, tmp_path):
        out = tmp_path / "quick.md"
        extra = ["--scale", "0.05", "--no-cache", "--out", str(out)]
        if isinstance(argv, list):
            assert main([*argv, *extra]) == 0
        else:
            argv.main(extra)
        assert out.read_text() == "report at 0.05 seed 1994\n"
        assert stub_report == [0.05]
        assert not (tmp_path / "EXPERIMENTS.md").exists()

    def test_committed_scale_and_seed_default_to_experiments_md(
            self, stub_report, tmp_path):
        assert main(["experiments", "report", "--no-cache"]) == 0
        assert (tmp_path / "EXPERIMENTS.md").read_text() == \
            "report at 1.0 seed 1994\n"

    @pytest.mark.parametrize("name", ["figure2", "table1"])
    def test_other_drivers_refuse_out(self, name, tmp_path, capsys):
        err = _usage_error(["experiments", name],
                           ["--out", str(tmp_path / "x.md")], capsys)
        assert "unrecognized arguments: --out" in err

    @pytest.mark.parametrize("name, extra", [
        ("report", ["--scale", "0.05", "--no-cache"]),
        ("figure2", ["--out", "x"]),
    ], ids=["report-without-out", "figure2-with-out"])
    def test_driver_usage_names_the_typed_command(self, name, extra,
                                                  stub_report, capsys):
        err = _usage_error(["experiments", name], extra, capsys)
        assert err.startswith(f"usage: repro experiments {name} ")
        assert f"repro experiments {name}: error:" in err
        assert stub_report == []

    def test_driver_usage_through_python_m_repro(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "report",
             "--scale", "0.05"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: repro experiments report ")
        assert "__main__" not in proc.stderr
        assert not (tmp_path / "EXPERIMENTS.md").exists()


class TestVerify:
    def test_verify_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify"])

    def test_verify_model_single_combo(self, capsys):
        rc = main([
            "verify", "model", "--nodes", "2", "--blocks", "1",
            "--extensions", "p,cw,m", "--depth", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P+CW+M / RC" in out
        assert "states" in out and "transitions" in out
        assert "directory transitions reached" in out
        assert "0 violation(s)" in out

    def test_verify_model_matrix_mode(self, capsys):
        rc = main([
            "verify", "model", "--depth", "1", "--consistency", "SC",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # SC matrix: BASIC, P, M, P+M (CW requires RC)
        assert "BASIC / SC" in out
        assert "P+M / SC" in out
        assert "CW" not in out
        assert "4 config(s)" in out
        # matrix mode keeps the per-combo listing behind --coverage
        assert "directory transitions reached" not in out

    def test_verify_model_reports_violations(self, capsys, monkeypatch):
        from repro.core.extensions import MigratoryExtension

        monkeypatch.setattr(
            MigratoryExtension,
            "grants_exclusive_read",
            lambda self, home, entry, msg: len(entry.sharers) > 0,
        )
        rc = main([
            "verify", "model", "--extensions", "m", "--depth", "3",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "counterexample" in out
        assert "exclusive holder" in out

    def test_verify_fuzz_short_campaign(self, capsys):
        rc = main([
            "verify", "fuzz", "--seed", "3", "--trials", "1",
            "--ops", "300",
        ])
        assert rc == 0
        assert "1 trial(s) ok" in capsys.readouterr().out

    def test_verify_registry(self, capsys):
        rc = main(["verify", "registry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registry ok" in out
        assert "sync_sensitive" in out
