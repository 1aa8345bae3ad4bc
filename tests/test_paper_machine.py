"""The simulated machine is the paper's, and nothing else (§4).

One full-map directory, 4-KB pages placed round-robin and the paper's
applications.  The ``pthor`` workload, the limited-pointer and
coarse-vector directories, first-touch placement and explicit mesh
shapes were removed; their canonical-dict entries stay at the one
surviving value, so no surviving spec's key changed.
A spec naming a removed option is refused at every entry point,
loudly.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from repro.config import (
    CompetitiveConfig,
    NetworkConfig,
    PrefetchConfig,
    SystemConfig,
)
from repro.service import API_VERSION, ApiError, parse_sweep_request
from repro.stats.counters import MachineStats
from repro.sweep import (
    SPEC_SCHEMA_VERSION,
    ResultCache,
    RunResult,
    RunSpec,
    SpecSchemaError,
)

#: one edit per removed option, applied to a valid wire payload
REMOVED = {
    "pthor": lambda w: w.update(app="pthor"),
    "limited": lambda w: w["directory"].update(org="limited"),
    "coarse": lambda w: w["directory"].update(org="coarse", region_size=2),
    "first_touch": lambda w: w.update(page_placement="first_touch"),
    "mesh_dims": lambda w: w["network"].update(mesh_dims=[8, 2]),
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
    assert {"directory", "page_placement"}.isdisjoint(
        f.name for f in fields(RunSpec)
    )


@pytest.mark.parametrize("option", sorted(REMOVED))
def test_from_wire_refuses(option):
    with pytest.raises(SpecSchemaError, match="invalid spec payload"):
        RunSpec.from_wire(_wire_naming(option))


@pytest.mark.parametrize("kw,match", [
    ({"app": "nosuchapp"}, "unknown workload 'nosuchapp'"),
    ({"app": "water", "directory": "limited:4"}, "'directory'"),
    ({"app": "water", "directory": "coarse:2"}, "'directory'"),
    ({"app": "water", "page_placement": "first_touch"}, "'page_placement'"),
], ids=["unknown-app", "limited", "coarse", "first_touch"])
def test_for_run_refuses(kw, match):
    with pytest.raises(ValueError, match=match):
        RunSpec.for_run(**kw)


@pytest.mark.parametrize("option", sorted(REMOVED))
def test_service_answers_422(option):
    body = {"v": API_VERSION, "specs": [_wire_naming(option)]}
    with pytest.raises(ApiError) as err:
        parse_sweep_request(body)
    assert err.value.status == 422
    assert "specs[0]: invalid spec payload" in err.value.message


@pytest.mark.parametrize("option", sorted(REMOVED))
def test_cache_entry_naming_a_removed_option_is_invalid(tmp_path, option):
    """An entry written while the option existed sits under the key its
    spec had then; reading it by that key drops it as invalid."""
    cache = ResultCache(tmp_path)
    spec = RunSpec.for_run("water", n_procs=2, scale=0.05)
    cache.put(RunResult(spec=spec, stats=MachineStats.for_nodes(2)))
    envelope = json.loads(cache.path_for(spec).read_text())
    old_wire = _wire_naming(option)
    old_dict = {k: v for k, v in old_wire.items() if k != "v"}
    old_key = hashlib.sha256(json.dumps(
        {"schema": SPEC_SCHEMA_VERSION, "spec": old_dict},
        sort_keys=True, separators=(",", ":"),
    ).encode()).hexdigest()
    path = cache.path_for_key(old_key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {**envelope, "spec_key": old_key, "spec": old_wire}
    ))
    assert cache.get_by_key(old_key) is None
    assert cache.invalidated == 1
    assert not path.exists()
    # the surviving entry is untouched
    assert cache.get_by_key(spec.key()) is not None
