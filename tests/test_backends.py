"""Tests for the execution-backend registry and spec threading.

Covers :mod:`repro.sim.backend` (registry, resolution, trace-dir
precedence, spec-time refusal), the v3 spec schema that carries the
backend name through the wire form and the content hash, and the CLI
``--backend`` choices, plus the orchestration flags the CLIs no longer
take.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.config import Consistency
from repro.experiments import figure2, scaling, sensitivity
from repro.sim.backend import (
    BACKEND_NAMES,
    BACKENDS,
    DEFAULT_BACKEND,
    TRACE_DIR_ENV,
    EventBackend,
    ReplayBackend,
    get_backend,
)
from repro.sweep import RunSpec
from repro.sweep.spec import SPEC_SCHEMA_VERSION, SpecSchemaError
from repro.verify import registry_combos


class TestRegistry:
    def test_registry_names(self):
        assert BACKEND_NAMES == ("event", "replay")
        assert DEFAULT_BACKEND == "event"
        for name, cls in BACKENDS.items():
            assert cls.name == name

    def test_exactness_flags(self):
        assert EventBackend.exact
        assert not ReplayBackend.exact

    def test_get_backend(self):
        assert isinstance(get_backend("event"), EventBackend)
        assert isinstance(get_backend("replay"), ReplayBackend)

    def test_get_backend_default(self):
        assert isinstance(get_backend(None), EventBackend)
        assert isinstance(get_backend(""), EventBackend)

    def test_get_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("turbo")


class TestTraceDir:
    def test_explicit_arg_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_DIR_ENV, "/env/dir")
        assert ReplayBackend(trace_dir=tmp_path).trace_dir == str(tmp_path)

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, "/env/dir")
        assert ReplayBackend().trace_dir == "/env/dir"

    def test_default(self, monkeypatch):
        monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
        assert ReplayBackend().trace_dir.endswith("traces")


class TestSpecBackendField:
    def test_default_is_event(self):
        assert RunSpec.for_run("mp3d").backend == "event"

    def test_every_registered_backend_is_accepted(self):
        for name in BACKEND_NAMES:
            assert RunSpec.for_run("mp3d", backend=name).backend == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            RunSpec.for_run("mp3d", backend="turbo")

    def test_removed_specialized_tier_rejected(self):
        with pytest.raises(ValueError, match="expected one of event, replay"):
            RunSpec.for_run("mp3d", backend="specialized")

    def test_backend_is_part_of_the_content_hash(self):
        keys = {RunSpec.for_run("mp3d", backend=b).key()
                for b in BACKEND_NAMES}
        assert len(keys) == len(BACKEND_NAMES)

    def test_label_shows_non_default_backend(self):
        assert "replay" in RunSpec.for_run("mp3d", backend="replay").label()
        assert "event" not in RunSpec.for_run("mp3d").label()


class TestWireV3:
    def test_schema_version(self):
        assert SPEC_SCHEMA_VERSION == 3

    def test_wire_round_trip(self):
        spec = RunSpec.for_run("mp3d", protocol="P+CW", backend="replay")
        wire = spec.to_wire()
        assert wire["v"] == 3
        assert wire["backend"] == "replay"
        assert RunSpec.from_wire(wire) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_stale_v2_payload_rejected(self):
        wire = RunSpec.for_run("mp3d").to_wire()
        wire["v"] = 2
        with pytest.raises(SpecSchemaError, match="schema version"):
            RunSpec.from_wire(wire)

    def test_payload_with_bad_backend_rejected(self):
        wire = RunSpec.for_run("mp3d").to_wire()
        wire["backend"] = "turbo"
        with pytest.raises(SpecSchemaError, match="invalid spec payload"):
            RunSpec.from_wire(wire)

    def test_from_dict_defaults_backend_to_event(self):
        d = RunSpec.for_run("mp3d").to_dict()
        del d["backend"]
        assert RunSpec.from_dict(d).backend == "event"


class TestCliChoices:
    """Every ``--backend`` option lists exactly the registered tiers."""

    @pytest.mark.parametrize("argv", [
        ["run", "mp3d"],
        ["compare", "mp3d"],
    ], ids=["run", "compare"])
    def test_repro_cli_rejects_unregistered_tier(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--backend", "specialized"])
        assert exc.value.code == 2          # argparse usage error
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("driver", [scaling, sensitivity],
                             ids=["scaling", "sensitivity"])
    def test_experiment_drivers_reject_unregistered_tier(
        self, driver, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            driver.main(["--backend", "specialized"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        choices = err.split("choose from", 1)[1]
        assert "event" in choices and "replay" in choices

    @pytest.mark.parametrize("flag", [
        ["--pool", "persistent"], ["--hot-cache-entries", "0"],
    ], ids=["pool", "hot-cache-entries"])
    @pytest.mark.parametrize("argv", [
        ["compare", "mp3d"], ["serve"], ["bench", "--suite", "sweep"], None,
    ], ids=["compare", "serve", "bench", "figure2"])
    def test_removed_orchestration_flags_rejected(self, argv, flag, capsys):
        """One pool and one hot-tier size: no CLI selects another."""
        with pytest.raises(SystemExit) as exc:
            if argv is None:
                figure2.main(flag)
            else:
                cli_main([*argv, *flag])
        assert exc.value.code == 2          # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReplayRefusal:
    """The replay tier runs what it models and refuses the rest when
    the spec is built, so no silently wrong result reaches the cache."""

    def test_registry_extension_refused_at_spec_build(self):
        with pytest.raises(ValueError, match="models only the P, CW and M"):
            RunSpec.for_run("lu", protocol="PF", backend="replay")
        # the event tier models every registered extension
        assert RunSpec.for_run("lu", protocol="PF").protocol == "PF"

    def test_refused_wire_payload_is_a_schema_error(self):
        wire = RunSpec.for_run("lu", protocol="PF").to_wire()
        wire["backend"] = "replay"
        with pytest.raises(SpecSchemaError, match="invalid spec payload"):
            RunSpec.from_wire(wire)

    @pytest.mark.parametrize("combo", registry_combos(Consistency.RC))
    def test_every_registry_combo_is_replayed_or_refused(
        self, combo, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        names = set(combo.split("+")) - {"BASIC"}

        def spec(protocol):
            return RunSpec.for_run("mp3d", protocol=protocol, n_procs=4,
                                   scale=0.05, backend="replay")

        if not names <= {"P", "CW", "M"}:
            with pytest.raises(ValueError, match="replay backend"):
                spec(combo)
            return
        stats = get_backend("replay").execute(spec(combo)).to_dict()
        if names:
            # each modelled extension must actually change the outcome;
            # BASIC numbers under an extension's key is the silent drop
            # this refusal exists to prevent
            basic = get_backend("replay").execute(spec("BASIC")).to_dict()
            assert stats != basic


class TestExecution:
    def test_replay_executes_from_its_trace_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        spec = RunSpec.for_run("mp3d", n_procs=4, scale=0.05,
                               backend="replay")
        stats = get_backend("replay").execute(spec)
        assert stats.execution_time > 0
        assert list(tmp_path.glob("*.reftrace"))
