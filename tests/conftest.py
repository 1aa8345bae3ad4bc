"""Shared test helpers: tiny machines and hand-written reference streams."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import CacheConfig, Consistency, NetworkConfig, SystemConfig
from repro.core.invariants import check_all
from repro.system import System

#: one 32-byte block per "slot" in hand-written tests
BLOCK = 32


def tiny_config(
    protocol: str = "BASIC",
    consistency: Consistency = Consistency.RC,
    n_procs: int = 4,
    slc_size: int | None = None,
    network: NetworkConfig | None = None,
    **cache_kw,
) -> SystemConfig:
    """A small machine for protocol microtests."""
    return SystemConfig(
        n_procs=n_procs,
        consistency=consistency,
        cache=CacheConfig(slc_size=slc_size, **cache_kw),
        network=network or NetworkConfig(),
    ).with_protocol(protocol)


def run_streams(cfg: SystemConfig, streams, check: bool = True) -> System:
    """Run per-processor op lists to completion (+ invariant check)."""
    system = System(cfg)
    system.run(streams)
    if check:
        check_all(system)
    return system


def idle(n_ops: int = 0):
    """An empty stream (a processor that does nothing)."""
    return []


def pad_streams(streams, n_procs):
    """Extend a partial stream list with idle processors."""
    out = list(streams)
    while len(out) < n_procs:
        out.append([])
    return out


@pytest.fixture
def rc4():
    """4-processor RC BASIC machine config."""
    return tiny_config()


def cache_entry_parts(path) -> tuple[dict, bytes, bytes]:
    """A result-cache entry's parsed JSON header, its spec line and its
    packed counter block (see ``repro.sweep.cache``)."""
    header, spec, block = Path(path).read_bytes().split(b"\n", 2)
    return json.loads(header), spec, block


def canonical_cache_entry(path) -> tuple[dict, bytes, bytes]:
    """:func:`cache_entry_parts` with ``wall_time``, the one field that
    legitimately varies run to run, zeroed."""
    header, spec, block = cache_entry_parts(path)
    header["wall_time"] = 0.0
    return header, spec, block


def write_cache_entry(path, header: dict, spec: bytes, block: bytes) -> None:
    """Write an entry's three parts back, as ``ResultCache.put`` does."""
    Path(path).write_bytes(b"\n".join((
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode(),
        spec,
        bytes(block),
    )))
