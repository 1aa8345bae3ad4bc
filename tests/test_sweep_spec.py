"""Tests for RunSpec: hashing stability, canonicalization, round trips."""

import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.config import (
    ALL_PROTOCOLS,
    SC_PROTOCOLS,
    CacheConfig,
    Consistency,
    NetworkConfig,
    NetworkKind,
)
from repro.experiments.runner import limited_slc_cache, mesh_network
from repro.sweep import SPEC_SCHEMA_VERSION, RunSpec, SpecSchemaError


#: workload-keyword values that Python equates across types (True == 1
#: == 1.0) but JSON writes apart
_KW_VALUES = st.one_of(
    st.booleans(),
    st.integers(0, 2),
    st.sampled_from([0.0, 1.0, 1.5]),
    st.sampled_from(["1", "true"]),
)


class TestCanonicalization:
    def test_protocol_name_is_canonicalized(self):
        assert RunSpec.for_run("mp3d", protocol="CW+P").protocol == "P+CW"
        assert RunSpec.for_run("mp3d", protocol="BASIC").protocol == "BASIC"

    @pytest.mark.parametrize("backend", ["event", "replay"])
    def test_removed_backend_field_rejected(self, backend):
        # one execution tier: the field is gone, and for_run must not
        # fold it into the workload keywords either
        with pytest.raises(TypeError, match="backend"):
            RunSpec.for_run("mp3d", backend=backend)
        with pytest.raises(TypeError):
            RunSpec("mp3d", backend=backend)
        assert "backend" not in RunSpec.for_run("mp3d").to_dict()

    def test_protocol_spellings_share_one_key(self):
        specs = [RunSpec.for_run("mp3d", protocol=p)
                 for p in ("cw+p", "P,CW", "p+cw")]
        assert {s.protocol for s in specs} == {"P+CW"}
        assert len({s.key() for s in specs}) == 1

    def test_app_spellings_are_one_spec(self):
        specs = [RunSpec.for_run(app, n_procs=2)
                 for app in ("MP3D", "Mp3d", "mp3d")]
        assert {s.app for s in specs} == {"mp3d"}
        assert specs[0] == specs[2] and hash(specs[0]) == hash(specs[2])
        assert len({s.key() for s in specs}) == 1
        assert RunSpec.from_json(specs[0].to_json()) == specs[2]

    def test_consistency_enum_becomes_value(self):
        spec = RunSpec.for_run("mp3d", consistency=Consistency.SC)
        assert spec.consistency == "SC"
        assert spec == RunSpec.for_run("mp3d", consistency="SC")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            RunSpec.for_run("mp3d", protocol="XYZ")

    def test_unknown_consistency_rejected(self):
        with pytest.raises(ValueError):
            RunSpec.for_run("mp3d", consistency="weak")


#: (build, wire edit): a value that equals an int of a valid spec but
#: is not one, so it would be keyed apart from its int twin
_NON_INTS = {
    "n_procs-float": (lambda: RunSpec.for_run("water", n_procs=16.0),
                      lambda w: w.update(n_procs=16.0)),
    "seed-bool": (lambda: RunSpec.for_run("water", seed=True),
                  lambda w: w.update(seed=True)),
    "slc_size-float": (lambda: CacheConfig(slc_size=16384.0),
                       lambda w: w["cache"].update(slc_size=16384.0)),
}


class TestPlainInts:
    @pytest.mark.parametrize("case", sorted(_NON_INTS))
    def test_non_int_values_refused(self, case):
        build, edit = _NON_INTS[case]
        with pytest.raises(ValueError, match="must be an int"):
            build()
        wire = RunSpec.for_run("water").to_wire()
        edit(wire)
        with pytest.raises(SpecSchemaError, match="must be an int"):
            RunSpec.from_wire(wire)

    @pytest.mark.parametrize("cls", [CacheConfig, NetworkConfig])
    def test_every_int_field_of_a_sub_config_refuses_a_float(self, cls):
        ints = [f.name for f in fields(cls) if f.type in ("int", "int | None")]
        assert ints
        for name in ints:
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                cls(**{name: 4096.0})


#: (for_run keywords, wire edit, refusal): machines SystemConfig
#: refuses, which a spec must refuse when built, before it is keyed
_UNBUILDABLE = {
    "no-procs": ({"n_procs": 0}, {"n_procs": 0}, "at least one processor"),
    "negative-procs": ({"n_procs": -3}, {"n_procs": -3},
                       "at least one processor"),
    "cw-under-sc": ({"protocol": "CW", "consistency": "SC"},
                    {"protocol": "CW", "consistency": "SC"},
                    "requires release consistency"),
}


class TestUnbuildableMachines:
    @pytest.mark.parametrize("case", sorted(_UNBUILDABLE))
    def test_refused_when_built(self, case):
        kw, edit, message = _UNBUILDABLE[case]
        with pytest.raises(ValueError, match=message):
            RunSpec.for_run("mp3d", **kw)
        with pytest.raises(ValueError, match=message):
            RunSpec(app="mp3d", **kw)
        wire = RunSpec.for_run("mp3d").to_wire()
        wire.update(edit)
        with pytest.raises(SpecSchemaError, match=message):
            RunSpec.from_wire(wire)

    def test_every_feasible_paper_cell_still_builds(self):
        for consistency, protocols in (("RC", ALL_PROTOCOLS),
                                       ("SC", SC_PROTOCOLS)):
            for protocol in protocols:
                RunSpec.for_run("mp3d", protocol=protocol,
                                consistency=consistency).to_config()


class TestScale:
    """A scale that is not finite and > 0 is refused before it is keyed.

    Every scale <= 0 hits a workload's size floor, so 0 and -1 would
    run one machine under two keys; nan and inf would be keyed and
    fail only when the workload is built.
    """

    @pytest.mark.parametrize("scale", [0.0, -1.0, 0, float("nan"),
                                       float("inf"), float("-inf")],
                             ids=str)
    def test_refused_when_built(self, scale):
        with pytest.raises(ValueError, match="RunSpec.scale must be finite"):
            RunSpec.for_run("mp3d", scale=scale)
        with pytest.raises(ValueError, match="RunSpec.scale must be finite"):
            RunSpec(app="mp3d", scale=scale)
        wire = RunSpec.for_run("mp3d").to_wire()
        wire["scale"] = scale
        with pytest.raises(SpecSchemaError, match="RunSpec.scale"):
            RunSpec.from_wire(wire)

    @pytest.mark.parametrize("scale", [1e-9, 0.05, 1, 3.5])
    def test_finite_positive_scale_builds(self, scale):
        assert RunSpec.for_run("mp3d", scale=scale).scale == float(scale)


class TestHashing:
    def test_equal_specs_equal_keys(self):
        a = RunSpec.for_run("water", protocol="P+CW", scale=0.5, seed=7)
        b = RunSpec.for_run("water", protocol="P+CW", scale=0.5, seed=7)
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_explicit_default_configs_key_like_implicit_ones(self):
        implicit = RunSpec.for_run("water")
        explicit = RunSpec.for_run(
            "water", network=NetworkConfig(), cache=CacheConfig(),
        )
        # distinct instances: the key is built field by field
        assert explicit.network is not implicit.network
        assert explicit == implicit
        assert explicit.key() == implicit.key() == RunSpec("water").key()
        assert explicit.to_json() == implicit.to_json()

    def test_to_dict_hands_out_copies_of_the_default_configs(self):
        spec = RunSpec.for_run("water")
        d = spec.to_dict()
        d["network"]["uniform_latency"] = 1
        d["cache"]["block_size"] = 64
        d["directory"]["org"] = "coarse"
        assert RunSpec.for_run("water").to_dict() == spec.to_dict()
        assert RunSpec.for_run("water").key() == spec.key()

    def test_every_field_perturbs_the_key(self):
        base = RunSpec.for_run("water")
        variants = [
            RunSpec.for_run("mp3d"),
            RunSpec.for_run("water", protocol="P"),
            RunSpec.for_run("water", consistency="SC"),
            RunSpec.for_run("water", n_procs=4),
            RunSpec.for_run("water", scale=0.5),
            RunSpec.for_run("water", seed=1),
            RunSpec.for_run("water", network=mesh_network(16)),
            RunSpec.for_run("water", cache=limited_slc_cache()),
            RunSpec.for_run("water", extra_knob=1),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_key_insensitive_to_workload_kw_order(self):
        a = RunSpec("water", workload_kw={"alpha": 1, "beta": 2})
        b = RunSpec("water", workload_kw={"beta": 2, "alpha": 1})
        c = RunSpec("water", workload_kw=(("beta", 2), ("alpha", 1)))
        assert a == b == c
        assert a.key() == b.key() == c.key()

    @given(
        st.dictionaries(st.sampled_from(["a", "b"]), _KW_VALUES, max_size=2),
        st.dictionaries(st.sampled_from(["a", "b"]), _KW_VALUES, max_size=2),
    )
    @example({"a": True}, {"a": 1})
    @example({"a": 1.0}, {"a": 1})
    @example({"a": 0}, {"a": False})
    def test_equality_and_hash_follow_the_key(self, kw_a, kw_b):
        a = RunSpec.for_run("water", **kw_a)
        b = RunSpec.for_run("water", **kw_b)
        assert (a == b) == (a.key() == b.key())
        if a == b:
            assert hash(a) == hash(b)

    def test_key_stable_across_processes(self):
        spec = RunSpec.for_run(
            "mp3d", protocol="P+CW", scale=0.25, seed=42,
            network=mesh_network(32),
        )
        code = (
            "from repro.sweep import RunSpec\n"
            "from repro.experiments.runner import mesh_network\n"
            "spec = RunSpec.for_run('mp3d', protocol='P+CW', scale=0.25,"
            " seed=42, network=mesh_network(32))\n"
            "print(spec.key())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == spec.key()


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = RunSpec.for_run(
            "cholesky", protocol="P+M", consistency=Consistency.SC,
            n_procs=9, scale=0.3, seed=3,
            network=NetworkConfig(kind=NetworkKind.MESH, link_width_bits=16),
            cache=limited_slc_cache(32 * 1024),
            extra_knob=5,
        )
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

    def test_to_config_carries_everything(self):
        spec = RunSpec.for_run(
            "water", protocol="P+CW", n_procs=4, network=mesh_network(16),
        )
        cfg = spec.to_config()
        assert cfg.protocol.name == "P+CW"
        assert cfg.n_procs == 4
        assert cfg.network.kind is NetworkKind.MESH
        assert cfg.consistency is Consistency.RC

    def test_json_round_trip_with_overrides(self):
        spec = RunSpec.for_run(
            "cholesky", protocol="P+M", consistency=Consistency.SC,
            n_procs=9, scale=0.3, seed=3,
            network=NetworkConfig(kind=NetworkKind.MESH, link_width_bits=16),
            cache=limited_slc_cache(32 * 1024),
            extra_knob=5,
        )
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.key() == spec.key()
        assert again.network == spec.network
        assert again.cache == spec.cache

    def test_wire_form_carries_version_stamp(self):
        wire = RunSpec.for_run("water").to_wire()
        assert wire["v"] == SPEC_SCHEMA_VERSION
        assert RunSpec.from_wire(wire) == RunSpec.for_run("water")
        assert json.loads(RunSpec.for_run("water").to_json())["v"] \
            == SPEC_SCHEMA_VERSION

    def test_schema_version(self):
        assert SPEC_SCHEMA_VERSION == 4
        assert RunSpec.for_run("water").to_wire()["v"] == 4

    def test_unknown_version_rejected(self):
        wire = RunSpec.for_run("water").to_wire()
        wire["v"] = SPEC_SCHEMA_VERSION + 1
        with pytest.raises(SpecSchemaError, match="unknown spec schema"):
            RunSpec.from_wire(wire)

    @pytest.mark.parametrize("version,backend", [
        (3, "event"), (3, "replay"), (2, None),
    ])
    def test_stale_payload_rejected(self, version, backend):
        # v3 payloads carried an execution-tier field; none is aliased
        wire = RunSpec.for_run("water").to_wire()
        wire["v"] = version
        if backend is not None:
            wire["backend"] = backend
        with pytest.raises(SpecSchemaError, match="schema version"):
            RunSpec.from_wire(wire)
        with pytest.raises(SpecSchemaError, match="schema version"):
            RunSpec.from_json(json.dumps(wire))

    def test_missing_version_rejected(self):
        # a bare to_dict() payload (no stamp) must not deserialize
        d = RunSpec.for_run("water").to_dict()
        with pytest.raises(SpecSchemaError):
            RunSpec.from_wire(d)

    def test_malformed_json_rejected(self):
        with pytest.raises(SpecSchemaError, match="not valid JSON"):
            RunSpec.from_json("{nope")
        with pytest.raises(SpecSchemaError):
            RunSpec.from_json("[1, 2, 3]")  # valid JSON, wrong shape

    def test_broken_fields_rejected(self):
        wire = RunSpec.for_run("water").to_wire()
        del wire["network"]
        with pytest.raises(SpecSchemaError, match="invalid spec payload"):
            RunSpec.from_wire(wire)

    def test_label_mentions_cell_coordinates(self):
        spec = RunSpec.for_run("water", protocol="P", n_procs=4,
                               network=mesh_network(16))
        label = spec.label()
        assert "water" in label and "P" in label
        assert "mesh16" in label and "4p" in label
