"""Semantics of the protocol-extension registry and pipeline.

Covers the composition layer itself -- deterministic ordering, name
resolution, unknown-name errors and zero-extension overhead -- as
opposed to the per-protocol behaviour pinned by
``tests/test_extension_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.config import ProtocolConfig, SystemConfig
from repro.core.extensions import (
    ExtensionPipeline,
    ProtocolExtension,
    UnknownExtensionError,
    build_pipeline,
    registered_extensions,
    resolve_names,
)
from repro.system import System
from repro.workloads import build_workload


def test_registry_order_is_deterministic():
    names = [info.name for info in registered_extensions()]
    assert names == ["P", "CW", "M"]
    # idempotent: the registry never reorders between calls
    assert names == [info.name for info in registered_extensions()]


def test_registered_extension_joins_the_ordered_registry(monkeypatch):
    from repro.core.extensions import ExtensionInfo, register_extension, registry

    # both restored by undo(), which takes the extension out again
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(registry, "_ORDERED", registry._ORDERED)
    info = ExtensionInfo(
        name="ZZ", order=15, description="test-only extension",
        factory=lambda protocol: ProtocolExtension(),
        enabled=lambda protocol: False,
    )
    register_extension(info)
    assert [i.name for i in registered_extensions()] == ["P", "ZZ", "CW", "M"]
    assert registered_extensions()[1] is info
    assert resolve_names(["cw", "zz"]) == ("ZZ", "CW")
    monkeypatch.undo()
    assert [i.name for i in registered_extensions()] == ["P", "CW", "M"]
    with pytest.raises(UnknownExtensionError):
        resolve_names(["ZZ"])


def test_resolve_names_canonicalizes_spelling_and_order():
    assert resolve_names(["m", "P"]) == ("P", "M")
    assert resolve_names(["cw", "CW", "Cw"]) == ("CW",)
    assert resolve_names(["M", "cw", "p"]) == ("P", "CW", "M")
    assert resolve_names([]) == ()


def test_unknown_extension_name_raises():
    with pytest.raises(UnknownExtensionError, match="registered extensions"):
        resolve_names(["P", "XYZ"])
    # UnknownExtensionError is a ValueError so existing callers that
    # catch ValueError on bad protocol strings keep working
    with pytest.raises(ValueError, match="XYZ"):
        ProtocolConfig.from_name("P+XYZ")


def test_duplicate_instances_rejected_by_pipeline():
    ext = ProtocolExtension()
    ext.name = "X"
    with pytest.raises(ValueError, match="duplicate"):
        ExtensionPipeline((ext, ext))


def test_basic_builds_empty_pipeline():
    pipe = build_pipeline(ProtocolConfig())
    assert pipe.extensions == ()
    assert pipe.home_request_handlers(None, {}) == {}


def test_hooks_with_fewer_than_two_overriders_are_bound_at_build():
    pipe = build_pipeline(ProtocolConfig.from_name("P+CW+M"))
    p, cw, m = pipe.extensions
    # one overrider: its own method, no dispatch loop
    assert pipe.on_fill == cw.on_fill
    assert pipe.on_miss_issued == p.on_miss_issued
    assert pipe.grants_exclusive_read == m.grants_exclusive_read
    # two overriders (P and CW): the ordered loop
    assert pipe.on_read_hit.__func__ is ExtensionPipeline.on_read_hit
    # no overrider: the no-op default
    assert pipe.on_ownership_granted.__func__ is ProtocolExtension.on_ownership_granted
    empty = build_pipeline(ProtocolConfig())
    assert empty.absorb_ack_payload(None, None, 7) == 7
    assert empty.on_write(None, 0, 0, None) is None


def test_pipeline_instantiates_enabled_extensions_in_order():
    proto = ProtocolConfig.from_name("P+CW+M")
    pipe = build_pipeline(proto)
    assert [ext.name for ext in pipe.extensions] == ["P", "CW", "M"]
    assert pipe.get("CW") is pipe.extensions[1]
    assert pipe.get("nope") is None


def test_protocol_name_round_trips_through_registry():
    for name in ("BASIC", "P", "CW", "M", "P+CW", "P+M", "CW+M", "P+CW+M"):
        assert ProtocolConfig.from_name(name).name == name
    # sloppy spellings canonicalize
    assert ProtocolConfig.from_name("m+cw").name == "CW+M"
    assert ProtocolConfig.from_name("p,m").name == "P+M"


def test_stats_hooks_are_namespaced_by_extension():
    cfg = SystemConfig(n_procs=4).with_protocol("P+CW+M")
    streams = build_workload("mp3d", cfg, scale=0.1)
    system = System(cfg)
    system.run(streams)
    merged = system.nodes[0].extensions.stats()
    assert any(key.startswith("P.") for key in merged)
    assert any(key.startswith("CW.") for key in merged)
    assert any(key.startswith("M.") for key in merged)
