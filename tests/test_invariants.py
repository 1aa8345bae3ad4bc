"""Tests for the coherence-invariant checker itself.

The checker must accept healthy systems (covered all over the suite)
and, crucially, *reject* corrupted ones -- otherwise the property
tests prove nothing.
"""

import pytest
from conftest import pad_streams, tiny_config

from repro.core.invariants import (
    InvariantViolation,
    check_all,
    check_coherence,
    check_inclusion,
    check_quiescent,
    check_safety,
    check_swmr,
)
from repro.core.states import CacheState, MemoryState
from repro.system import System


def healthy_system():
    system = System(tiny_config())
    streams = pad_streams(
        [[("read", 0), ("write", 0)], [("read", 4096)]], 4
    )
    system.run(streams)
    return system


def test_healthy_system_passes():
    check_all(healthy_system())


def test_detects_double_exclusive():
    system = healthy_system()
    # forge a second dirty copy of block 0
    system.nodes[1].cache.slc.insert(0, CacheState.DIRTY)
    with pytest.raises(InvariantViolation, match="exclusive"):
        check_coherence(system)


def test_detects_exclusive_plus_shared():
    system = healthy_system()
    system.nodes[1].cache.slc.insert(0, CacheState.SHARED)
    with pytest.raises(InvariantViolation):
        check_coherence(system)


def test_detects_wrong_owner():
    system = healthy_system()
    entry = system.nodes[0].home.directory.entry(0)
    assert entry.state is MemoryState.MODIFIED
    entry.owner = 3  # lie about the owner
    with pytest.raises(InvariantViolation, match="MODIFIED"):
        check_coherence(system)


def test_detects_clean_with_exclusive_holder():
    system = healthy_system()
    entry = system.nodes[0].home.directory.entry(0)
    entry.state = MemoryState.CLEAN
    entry.owner = None
    with pytest.raises(InvariantViolation, match="CLEAN"):
        check_coherence(system)


def test_detects_unknown_sharer():
    system = healthy_system()
    # node 3 conjures a copy the directory never granted
    system.nodes[3].cache.slc.insert(4096 // 32, CacheState.SHARED)
    with pytest.raises(InvariantViolation, match="unknown"):
        check_coherence(system)


def test_detects_inclusion_violation():
    system = healthy_system()
    system.nodes[0].cache.flc.fill(999)  # FLC block absent from SLC
    with pytest.raises(InvariantViolation, match="inclusion"):
        check_inclusion(system)


def test_detects_unquiesced_cache():
    system = healthy_system()
    cache = system.nodes[0].cache
    from repro.core.cache_ctrl import _PendingRead

    cache._pending_reads[123] = _PendingRead(
        block=123, slwb_id=0, is_prefetch=False, start=0
    )
    with pytest.raises(InvariantViolation, match="outstanding"):
        check_quiescent(system)


def test_detects_stuck_home_transaction():
    system = healthy_system()
    from repro.core.home import _Xact
    from repro.core.messages import Message, MsgType

    system.nodes[0].home._xacts[7] = _Xact(
        kind="inv", orig=Message(MsgType.OWN_REQ, src=1, dst=0, block=7)
    )
    with pytest.raises(
        InvariantViolation,
        match=r"home 0: transactions \[7\] still active at quiescence",
    ):
        check_quiescent(system)


def test_detects_line_unknown_to_directory():
    """Reverse-sweep regression: a resident SLC line whose block the
    home directory never recorded must be flagged.  The forward sweep
    (over ``known_blocks``) cannot see it."""
    system = healthy_system()
    # block 500 was never referenced: no directory entry anywhere
    system.nodes[2].cache.slc.insert(500, CacheState.SHARED)
    assert all(500 not in n.home.directory for n in system.nodes)
    with pytest.raises(
        InvariantViolation,
        match=r"node 2: SLC holds block 500 \(S\) unknown to its home",
    ):
        check_coherence(system)


def test_detects_exclusive_line_unknown_to_directory():
    system = healthy_system()
    system.nodes[1].cache.slc.insert(501, CacheState.DIRTY)
    with pytest.raises(InvariantViolation, match="unknown to its home"):
        check_coherence(system)


def test_inclusion_message_is_specific():
    system = healthy_system()
    system.nodes[0].cache.flc.fill(999)
    with pytest.raises(
        InvariantViolation,
        match=r"node 0: FLC holds block 999 absent from the SLC "
              r"\(inclusion violated\)",
    ):
        check_inclusion(system)


def test_check_swmr_needs_no_directory_state():
    system = healthy_system()
    check_swmr(system)
    # two exclusive copies of a block no directory knows about
    system.nodes[2].cache.slc.insert(700, CacheState.DIRTY)
    system.nodes[3].cache.slc.insert(700, CacheState.DIRTY)
    with pytest.raises(
        InvariantViolation, match=r"block 700: multiple exclusive holders"
    ):
        check_swmr(system)


def test_check_safety_is_the_midflight_subset():
    system = healthy_system()
    check_safety(system)
    system.nodes[1].cache.slc.insert(0, CacheState.SHARED)
    with pytest.raises(InvariantViolation, match="coexists"):
        check_safety(system)
