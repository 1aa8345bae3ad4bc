"""Cache addresses and wire bytes of ``RunSpec`` are pinned.

``tests/golden/spec_keys.json`` holds ``key()`` and ``to_json()`` for
every application x the eight protocol combinations under RC and the
four feasible under SC x uniform/mesh x the three cache
configurations.  A changed key silently orphans every cached result,
so the serialization must reproduce these bytes exactly.

Regenerate (only for an intentional spec change) with
``PYTHONPATH=src python tests/golden/regen_spec_keys.py``.

``key()`` joins precomputed JSON fragments instead of running the
encoder; ``oracle_key`` is the encoder form it must equal byte for
byte, on the golden corpus and on random specs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.config import (
    ALL_PROTOCOLS,
    SC_PROTOCOLS,
    CacheConfig,
    NetworkConfig,
    ProtocolConfig,
)
from repro.experiments import limited_slc_cache, mesh_network, small_buffer_cache
from repro.stats.counters import MachineStats
from repro.sweep import ResultCache, RunResult, RunSpec, SweepEngine
from repro.sweep.spec import (
    MODEL_STAMP,
    SPEC_SCHEMA_VERSION,
    _canonical_json,
)
from repro.workloads import ALL_APP_NAMES

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "spec_keys.json").read_text())

sys.path.insert(0, str(GOLDEN_DIR))
from regen_spec_keys import corpus  # noqa: E402


def oracle_key(spec: RunSpec) -> str:
    """The key as the definition states it: the sha256 of the canonical
    JSON encoding of the model stamp, the schema stamp and the spec's
    canonical dict."""
    payload = _canonical_json({"model": MODEL_STAMP,
                               "schema": SPEC_SCHEMA_VERSION,
                               "spec": spec.to_dict()})
    return hashlib.sha256(payload.encode()).hexdigest()


def test_corpus_matches_golden():
    cells = corpus()
    assert len(cells) == len(GOLDEN) == 432
    for cell, spec in cells:
        expected = GOLDEN[cell]
        assert spec.to_json() == expected["json"], cell
        assert spec.key() == expected["key"], cell
        assert oracle_key(spec) == expected["key"], cell


@pytest.mark.parametrize("protocol", sorted(set(ALL_PROTOCOLS)
                                             - set(SC_PROTOCOLS)))
def test_cw_under_sc_has_no_key(protocol):
    # refused when built, so no such cell is ever keyed or cached
    with pytest.raises(ValueError, match="requires release consistency"):
        RunSpec.for_run("mp3d", protocol=protocol, consistency="SC")


def test_golden_json_round_trips_to_the_same_key():
    for cell, expected in GOLDEN.items():
        spec = RunSpec.from_json(expected["json"])
        assert spec.key() == expected["key"], cell


def test_int_and_float_scale_share_one_key():
    as_int = RunSpec.for_run("mp3d", scale=1)
    as_float = RunSpec.for_run("mp3d", scale=1.0)
    assert as_int == as_float
    assert hash(as_int) == hash(as_float)
    assert as_int.key() == as_float.key()
    assert as_int.to_json() == as_float.to_json()
    assert type(as_int.scale) is float
    # a wire payload carrying an int scale, as a hand-written one may
    wire = as_float.to_wire()
    wire["scale"] = 1
    assert RunSpec.from_wire(wire).key() == as_float.key()


def test_int_and_float_scale_share_one_cache_entry(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(RunResult(
        spec=RunSpec.for_run("mp3d", n_procs=2, scale=1),
        stats=MachineStats.for_nodes(2),
    ))
    hit = cache.get(RunSpec.for_run("mp3d", n_procs=2, scale=1.0))
    assert hit is not None and hit.from_cache
    assert len(cache) == 1


def test_int_and_float_scale_dedup_in_one_batch():
    engine = SweepEngine()
    first, second = engine.run([
        RunSpec.for_run("water", n_procs=2, scale=1),
        RunSpec.for_run("water", n_procs=2, scale=1.0),
    ])
    assert engine.deduped == 1
    assert first.stats == second.stats


# -- the fragment-built key against the encoder ------------------------


def _spellings(name: str):
    return st.sampled_from([name, name.upper(), name.title(), name.lower()])


#: app names as a user may spell them (stored lower-cased)
apps = st.sampled_from(sorted(ALL_APP_NAMES)).flatmap(_spellings)


@st.composite
def protocols(draw):
    """Any spelling of any combination: parts in any order and case,
    joined by ``+`` or ``,``, or a spelling of BASIC."""
    parts = draw(st.lists(st.sampled_from(["P", "CW", "M"]), unique=True))
    if not parts:
        return draw(st.sampled_from(["BASIC", "basic", "Basic", ""]))
    parts = [draw(_spellings(part)) for part in parts]
    return draw(st.sampled_from(["+", ","])).join(parts)


scales = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.integers(min_value=1, max_value=10**6),
)
big_ints = st.integers(min_value=-(2**80), max_value=2**80)
caches = st.one_of(
    st.just(CacheConfig()),                 # the default, not its instance
    st.builds(limited_slc_cache, st.sampled_from([1024, 16 * 1024, 2**20])),
    st.just(small_buffer_cache()),
    st.builds(CacheConfig, flwb_entries=st.integers(1, 64),
              write_cache_blocks=st.integers(0, 16)),
)
networks = st.one_of(
    st.just(NetworkConfig()),
    st.builds(mesh_network, st.sampled_from([64, 32, 16, 8])),
    st.builds(mesh_network, st.integers(1, 4096)),
    st.builds(NetworkConfig, uniform_latency=st.integers(0, 10**9)),
)


@given(
    app=apps, protocol=protocols(), sc=st.booleans(),
    n_procs=st.one_of(st.integers(1, 64), st.integers(1, 2**70)),
    seed=big_ints, scale=scales,
    cache=st.one_of(st.none(), caches), network=st.one_of(st.none(), networks),
)
@example(app="MP3D", protocol="cw+p", sc=False, n_procs=16, seed=1994,
         scale=0.1 + 0.2, cache=None, network=None)
@example(app="lu", protocol="M,P", sc=True, n_procs=64, seed=2**64 + 1,
         scale=1e-05, cache=limited_slc_cache(), network=mesh_network(16))
@example(app="Water", protocol="BASIC", sc=True, n_procs=1, seed=-1,
         scale=3.0, cache=small_buffer_cache(), network=mesh_network(32))
def test_fragment_key_equals_the_encoded_key(
        app, protocol, sc, n_procs, seed, scale, cache, network):
    if sc and ProtocolConfig.from_name(protocol).competitive_update:
        sc = False                          # CW needs release consistency
    kw = {} if cache is None else {"cache": cache}
    if network is not None:
        kw["network"] = network
    spec = RunSpec(
        app=app, protocol=protocol, consistency="SC" if sc else "RC",
        n_procs=n_procs, seed=seed, scale=scale, **kw,
    )
    assert spec.key() == oracle_key(spec)
    # a second spec of equal value, whose sub-configs are other
    # instances of equal value, gets the same key
    twin = RunSpec.from_json(spec.to_json())
    assert twin.key() == spec.key()
