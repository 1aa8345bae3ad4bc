"""The bounded model checker: exploration, guards, counterexamples."""

import pytest

from repro.config import Consistency
from repro.core.extensions import MigratoryExtension
from repro.core.invariants import InvariantViolation
from repro.verify import (
    Stepper,
    VerifyConfig,
    check_model,
    matrix_configs,
    registry_combos,
    shrink_ops,
)


def test_basic_explores_cleanly():
    res = check_model(VerifyConfig(n_nodes=2, n_blocks=1, depth=4))
    assert res.ok
    assert res.explored > 10
    assert res.transitions > res.explored
    assert res.depth_reached >= 4 or res.transitions == res.explored
    assert res.coverage.pairs > 0
    assert ("CLEAN", "RD_REQ") in res.coverage.directory
    assert "ok" in res.summary()


def test_acceptance_combo_p_cw_m_full_map():
    """The ISSUE's acceptance invocation: p,cw,m on a full map."""
    res = check_model(
        VerifyConfig(n_nodes=2, n_blocks=1, depth=4, extensions="p,cw,m")
    )
    assert res.ok
    assert res.explored > 20
    assert not res.truncated


def test_sc_configuration_explores_cleanly():
    res = check_model(
        VerifyConfig(
            n_nodes=2, n_blocks=1, depth=3, consistency=Consistency.SC
        )
    )
    assert res.ok


def test_sync_ops_only_for_sync_sensitive_combos():
    plain = Stepper(VerifyConfig(n_nodes=2, n_blocks=1))
    assert not any(op[0] == "lock" for op in plain.enabled_ops())
    cw = Stepper(VerifyConfig(n_nodes=2, n_blocks=1, extensions="cw"))
    assert ("lock", 0) in cw.enabled_ops()
    # once held, only the holder's unlock is enabled
    cw.apply(("lock", 1))
    ops = cw.enabled_ops()
    assert ("unlock", 1) in ops
    assert not any(op[0] == "lock" for op in ops)


def test_unguarded_lock_ops_are_invalid_sequences():
    stepper = Stepper(VerifyConfig(n_nodes=2, n_blocks=1, extensions="cw"))
    with pytest.raises(ValueError, match="invalid sequence"):
        stepper.apply(("unlock", 0))


def test_broken_extension_yields_minimized_counterexample(monkeypatch):
    """The deliberately broken extension of the acceptance criteria: an
    exclusive read grant that ignores existing sharers must produce a
    minimized, replayable counterexample."""
    monkeypatch.setattr(
        MigratoryExtension,
        "grants_exclusive_read",
        lambda self, home, entry, msg: len(entry.sharers) > 0,
    )
    res = check_model(
        VerifyConfig(n_nodes=2, n_blocks=1, depth=4, extensions="m")
    )
    assert not res.ok
    cx = res.violation
    # minimal reproduction: a read installing a sharer, then the read
    # that is wrongly granted exclusivity
    assert len(cx.ops) == 2
    assert all(op[0] == "read" for op in cx.ops)
    assert "exclusive holder" in cx.error
    with pytest.raises(InvariantViolation, match="exclusive holder"):
        cx.replay()
    assert "counterexample" in cx.describe()


def test_shrink_ops_is_greedy_deletion():
    def fails(ops):
        return "a" in ops and "b" in ops

    assert sorted(shrink_ops(("x", "a", "y", "b", "z", "a"), fails)) == [
        "a",
        "b",
    ]


def test_registry_combos_respect_consistency():
    rc = registry_combos(Consistency.RC)
    assert "BASIC" in rc
    assert "P+CW+M" in rc
    sc = registry_combos(Consistency.SC)
    assert "BASIC" in sc
    assert not any("CW" in c for c in sc)
    assert len(sc) < len(rc)


def test_matrix_configs_cross_product():
    configs = matrix_configs(depth=2)
    combos = len(registry_combos(Consistency.RC)) + len(
        registry_combos(Consistency.SC)
    )
    assert len(configs) == combos
    assert all(c.depth == 2 for c in configs)
