"""The registry holds exactly the paper's three extensions: P, CW and M.

Pins the surface left once the fixed-degree ``PF`` protocol name, the
``ProtocolConfig.extra`` naming channel and the registry's conflict
declarations were removed: the verifier matrix is exactly the set of
cells the experiments run, a spec naming ``PF`` is refused at every
entry point, and neither removed field can creep back.
"""

from dataclasses import fields

import pytest

from repro.config import (
    ALL_PROTOCOLS,
    SC_PROTOCOLS,
    Consistency,
    ProtocolConfig,
)
from repro.core.extensions import ExtensionInfo, UnknownExtensionError
from repro.sweep import RunSpec, SpecSchemaError
from repro.verify import registry_combos


def test_verifier_matrix_is_the_papers_combinations():
    assert set(registry_combos(Consistency.RC)) == set(ALL_PROTOCOLS)
    assert set(registry_combos(Consistency.SC)) == set(SC_PROTOCOLS)


def test_for_run_refuses_pf():
    with pytest.raises(UnknownExtensionError, match="registered extensions: CW, M, P"):
        RunSpec.for_run("lu", protocol="PF")


def _wire_naming(protocol):
    wire = RunSpec.for_run("lu", protocol="P+M").to_wire()
    wire["protocol"] = protocol
    return wire


def test_from_wire_refuses_pf():
    with pytest.raises(SpecSchemaError, match="'PF'"):
        RunSpec.from_wire(_wire_naming("PF+M"))


def test_protocol_config_has_no_extra_field():
    names = [f.name for f in fields(ProtocolConfig)]
    assert "extra" not in names
    assert names == [
        "prefetch",
        "migratory",
        "competitive_update",
        "prefetch_params",
        "competitive_params",
    ]


def test_extension_info_has_no_conflicts_field():
    assert "conflicts" not in {f.name for f in fields(ExtensionInfo)}
