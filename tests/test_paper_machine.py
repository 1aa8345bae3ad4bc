"""The simulated machine is the paper's, and nothing else (§4).

One full-map directory, 4-KB pages placed round-robin and the paper's
applications.  The ``pthor`` workload, the limited-pointer and
coarse-vector directories, first-touch placement, explicit mesh shapes
and free workload keywords were removed, and a spec's canonical dict
holds only its eight fields: no ``directory``, ``page_placement``,
``network.mesh_dims`` or ``workload_kw`` entry, not even at a value
the machine has.  A spec naming a removed option is refused at every
entry point, loudly: ``RunSpec`` and ``for_run`` raise Python's own
``TypeError`` on an unknown keyword, and ``from_wire`` refuses a
payload whose keys are not the spec's own.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from conftest import cache_entry_parts, write_cache_entry
from repro.config import (
    CompetitiveConfig,
    NetworkConfig,
    PrefetchConfig,
    SystemConfig,
)
from repro.stats.counters import MachineStats
from repro.sweep import (
    SPEC_SCHEMA_VERSION,
    ResultCache,
    RunResult,
    RunSpec,
    SpecSchemaError,
)
from repro.sweep.spec import MODEL_STAMP

#: the full-map directory and round-robin placement that v4 wire
#: payloads carried as fixed values
_V4_DIRECTORY = {"org": "full_map", "pointers": 4, "region_size": 4}

#: one edit per removed option, applied to a valid wire payload: a key
#: the spec does not have, at a removed or at the surviving value, a
#: removed value, or a missing key
REMOVED = {
    "pthor": lambda w: w.update(app="pthor"),
    "directory": lambda w: w.update(directory=_V4_DIRECTORY),
    "limited": lambda w: w.update(directory={**_V4_DIRECTORY,
                                             "org": "limited"}),
    "coarse": lambda w: w.update(directory={**_V4_DIRECTORY, "org": "coarse",
                                            "region_size": 2}),
    "page_placement": lambda w: w.update(page_placement="round_robin"),
    "first_touch": lambda w: w.update(page_placement="first_touch"),
    "mesh_dims": lambda w: w["network"].update(mesh_dims=[8, 2]),
    "mesh_dims_none": lambda w: w["network"].update(mesh_dims=None),
    "workload_kw": lambda w: w.update(workload_kw={}),
    "backend": lambda w: w.update(backend="event"),
    "missing_seed": lambda w: w.pop("seed"),
    "missing_cache": lambda w: w.pop("cache"),
}


def _wire_naming(option: str) -> dict:
    wire = RunSpec.for_run("water", n_procs=2, scale=0.05).to_wire()
    REMOVED[option](wire)
    return wire


def test_no_config_field_selects_a_removed_option():
    assert {f.name for f in fields(SystemConfig)} == {
        "n_procs", "consistency", "timing", "cache", "protocol", "network",
    }
    assert "mesh_dims" not in {f.name for f in fields(NetworkConfig)}
    assert {f.name for f in fields(CompetitiveConfig)} == {"threshold"}
    assert "adaptive" not in {f.name for f in fields(PrefetchConfig)}
    assert not hasattr(CompetitiveConfig, "classic")
    assert {f.name for f in fields(RunSpec)} == {
        "app", "protocol", "consistency", "n_procs", "scale", "seed",
        "network", "cache",
    }
    assert RunSpec.for_run("water").to_dict().keys() \
        == {f.name for f in fields(RunSpec)}


@pytest.mark.parametrize("option", sorted(REMOVED))
def test_from_wire_refuses(option):
    with pytest.raises(SpecSchemaError, match="invalid spec payload"):
        RunSpec.from_wire(_wire_naming(option))


@pytest.mark.parametrize("kw,error,match", [
    ({"app": "nosuchapp"}, ValueError, "unknown workload 'nosuchapp'"),
    ({"app": "water", "directory": "limited:4"}, TypeError, "'directory'"),
    ({"app": "water", "directory": "coarse:2"}, TypeError, "'directory'"),
    ({"app": "water", "page_placement": "first_touch"}, TypeError,
     "'page_placement'"),
    ({"app": "hitpath", "bogus": 3}, TypeError, "'bogus'"),
], ids=["unknown-app", "limited", "coarse", "first_touch", "bogus"])
def test_for_run_refuses(kw, error, match):
    with pytest.raises(error, match=match):
        RunSpec.for_run(**kw)
    # the constructor refuses alike, before any key exists
    with pytest.raises(error, match=match):
        RunSpec(**kw)


@pytest.mark.parametrize("option", sorted(REMOVED))
def test_cache_entry_naming_a_removed_option_is_invalid(tmp_path, option):
    """An entry written while the option existed sits under the key its
    spec had then.  No buildable spec hashes to that key (``from_wire``
    refuses the stored spec), so ``get`` never returns it; ``clear``
    collects it."""
    cache = ResultCache(tmp_path)
    spec = RunSpec.for_run("water", n_procs=2, scale=0.05)
    cache.put(RunResult(spec=spec, stats=MachineStats.for_nodes(2)))
    header, _, block = cache_entry_parts(cache.path_for(spec))
    old_wire = _wire_naming(option)
    old_dict = {k: v for k, v in old_wire.items() if k != "v"}
    old_key = hashlib.sha256(json.dumps(
        {"model": MODEL_STAMP, "schema": SPEC_SCHEMA_VERSION,
         "spec": old_dict},
        sort_keys=True, separators=(",", ":"),
    ).encode()).hexdigest()
    path = cache.path_for_key(old_key)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_cache_entry(
        path, {**header, "spec_key": old_key},
        json.dumps(old_wire, sort_keys=True, separators=(",", ":")).encode(),
        block,
    )
    assert old_key != spec.key()
    with pytest.raises(SpecSchemaError):
        RunSpec.from_wire(old_wire)
    # the surviving spec reads its own entry, never the old one
    got = cache.get(spec)
    assert got is not None and got.spec == spec
    assert (cache.hits, cache.misses, cache.invalidated) == (1, 0, 0)
    assert path.exists()
    assert cache.clear() == 2
