"""Per-type message dispatch tables and the observers that watch them.

Every message type a node can receive -- the base protocol's and the
ones extensions claim -- resolves to its final handler when the
machine is built.  These tests pin that table for every registry
combination, the build-time rejection of a type or transaction kind
claimed twice, the run-time rejection of one nobody claimed, and that
the tracer and coverage observers still see every message.
"""

from __future__ import annotations

import pytest
from conftest import tiny_config

from repro.config import Consistency, NetworkConfig, NetworkKind, SystemConfig
from repro.core.extensions import (
    ExtensionPipeline,
    ProtocolExtension,
    build_pipeline,
)
from repro.core.messages import HOME_BOUND, Message, MsgType
from repro.core.transactions import Xact
from repro.node import node as node_module
from repro.sim.engine import SimulationError
from repro.system import System
from repro.trace import MessageTracer
from repro.verify import CoverageTracker, registry_combos
from repro.workloads import build_workload

COMBOS = [
    (combo, consistency)
    for consistency in (Consistency.RC, Consistency.SC)
    for combo in registry_combos(consistency)
]
COMBO_IDS = [f"{combo}-{consistency.name}" for combo, consistency in COMBOS]

BASE_CACHE_TYPES = frozenset(
    {
        MsgType.RD_RPL,
        MsgType.RDX_RPL,
        MsgType.OWN_ACK,
        MsgType.INV,
        MsgType.FETCH,
        MsgType.FETCH_INV,
        MsgType.WB_ACK,
        MsgType.LOCK_GRANT,
        MsgType.LOCK_REL_ACK,
        MsgType.BAR_WAKE,
    }
)
CW_CACHE_TYPES = frozenset({MsgType.UPD_PROP, MsgType.MIG_QUERY, MsgType.WC_ACK})
BASE_REQUEST_TYPES = frozenset(
    {MsgType.RD_REQ, MsgType.RDX_REQ, MsgType.OWN_REQ, MsgType.WB, MsgType.REPL}
)
BASE_ACK_KINDS = {
    "fetch_read": MsgType.XFER_ACK,
    "fetchinv_read": MsgType.XFER_ACK,
    "fetchinv_write": MsgType.XFER_ACK,
    "inv": MsgType.INV_ACK,
}
CW_ACK_KINDS = {
    "upd": MsgType.UPD_ACK,
    "migq": MsgType.MIG_RPL,
    "fetch_flush": MsgType.XFER_ACK,
}
#: home-bound types that only a CW machine sends
CW_HOME_TYPES = frozenset({MsgType.WC_FLUSH, MsgType.UPD_ACK, MsgType.MIG_RPL})


def build(combo: str, consistency: Consistency) -> System:
    return System(tiny_config(combo, consistency))


def receivable(combo: str) -> frozenset:
    """The message types a node of ``combo`` can receive."""
    cw = "CW" in combo.split("+")
    cache = BASE_CACHE_TYPES | (CW_CACHE_TYPES if cw else frozenset())
    home = HOME_BOUND if cw else HOME_BOUND - CW_HOME_TYPES
    return cache | home


@pytest.mark.parametrize(("combo", "consistency"), COMBOS, ids=COMBO_IDS)
def test_every_receivable_type_maps_to_a_direct_handler(combo, consistency):
    system = build(combo, consistency)
    cw = "CW" in combo.split("+")
    types = receivable(combo)
    for node, fns in zip(system.nodes, system._deliver_fns):
        cache, home = node.cache, node.home
        assert len(fns) == len(MsgType) + 1  # indexed by int(mtype)
        for mtype in MsgType:
            fn = fns[mtype]
            if mtype in HOME_BOUND:
                assert fn == home.handler_for(mtype)
            elif mtype in types:
                assert fn == cache._handlers[mtype]
                assert fn != cache.deliver
            else:
                # nobody claimed it: the rejecting fallback
                assert fn == cache.deliver
        assert set(cache._handlers) == types - HOME_BOUND
        requests = BASE_REQUEST_TYPES | ({MsgType.WC_FLUSH} if cw else set())
        assert set(home._request_handlers) == requests
        for mtype in requests:
            assert fns[mtype] == home._deliver_request
        kinds = BASE_ACK_KINDS | (CW_ACK_KINDS if cw else {})
        assert {k: v[0] for k, v in home._ack_handlers.items()} == kinds


class _Claims(ProtocolExtension):
    """An extension that claims one message type or transaction kind."""

    name = "X"

    def __init__(self, cache=None, request=None, ack=None) -> None:
        self._cache, self._request, self._ack = cache, request, ack

    def cache_handlers(self, ctrl):
        return {self._cache: lambda msg, t: None} if self._cache else {}

    def home_request_handlers(self, home):
        return {self._request: lambda msg, entry, t: None} if self._request else {}

    def home_ack_handlers(self, home):
        if self._ack is None:
            return {}
        return {self._ack: (MsgType.INV_ACK, lambda msg, xact, entry, t: None)}


def _with_extension(monkeypatch, extension_factory) -> None:
    """Make every node's pipeline end with ``extension_factory()``."""

    def build_with(protocol):
        extensions = build_pipeline(protocol).extensions
        return ExtensionPipeline(extensions + (extension_factory(),))

    monkeypatch.setattr(node_module, "build_pipeline", build_with)


def _double_claims(combo: str) -> list[dict]:
    claims = [
        {"cache": MsgType.RD_RPL},
        {"request": MsgType.RD_REQ},
        {"ack": "inv"},
    ]
    if "CW" in combo.split("+"):
        # claimed by another extension rather than by the base protocol
        claims += [
            {"cache": MsgType.UPD_PROP},
            {"request": MsgType.WC_FLUSH},
            {"ack": "upd"},
        ]
    return claims


@pytest.mark.parametrize(("combo", "consistency"), COMBOS, ids=COMBO_IDS)
def test_claiming_twice_is_rejected_at_build(monkeypatch, combo, consistency):
    for claim in _double_claims(combo):
        _with_extension(monkeypatch, lambda: _Claims(**claim))
        with pytest.raises(ValueError, match="already claimed"):
            build(combo, consistency)
    # a fresh claim composes
    _with_extension(monkeypatch, lambda: _Claims(ack="fresh_kind"))
    system = build(combo, consistency)
    assert "fresh_kind" in system.nodes[0].home._ack_handlers


@pytest.mark.parametrize(("combo", "consistency"), COMBOS, ids=COMBO_IDS)
def test_unclaimed_types_and_kinds_are_rejected(combo, consistency):
    system = build(combo, consistency)
    node = 1
    fns = system._deliver_fns[node]
    home = system.nodes[node].home
    for mtype in frozenset(MsgType) - receivable(combo):
        msg = Message(mtype, 0, node, 3)
        with pytest.raises(SimulationError):
            fns[mtype](msg, 0)
        if mtype in HOME_BOUND:
            with pytest.raises(SimulationError, match="unhandled request"):
                home.process_request(msg, 0)
    # an ack for a transaction kind nobody claimed
    home.open_xact(5, Xact(kind="unclaimed", orig=Message(MsgType.RD_REQ, 0, node, 5)))
    with pytest.raises(SimulationError, match="unexpected"):
        fns[MsgType.INV_ACK](Message(MsgType.INV_ACK, 0, node, 5), 0)
    # an ack of the wrong type for a claimed kind
    home.open_xact(6, Xact(kind="inv", orig=Message(MsgType.RD_REQ, 0, node, 6)))
    with pytest.raises(SimulationError, match="unexpected"):
        fns[MsgType.XFER_ACK](Message(MsgType.XFER_ACK, 0, node, 6), 0)
    # an ack with no transaction open
    with pytest.raises(SimulationError, match="stray"):
        fns[MsgType.INV_ACK](Message(MsgType.INV_ACK, 0, node, 7), 0)


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------


def _remote_census(tracer: MessageTracer) -> dict[str, int]:
    """Messages per type that crossed the network."""
    census: dict[str, int] = {}
    for r in tracer:
        if r.src != r.dst:
            census[r.mtype] = census.get(r.mtype, 0) + 1
    return census


def _assert_local_messages_are_not_traffic(tracer, net) -> None:
    """Only remote messages count as network bytes, and the trace
    does contain local ones, so the exclusion is exercised."""
    assert any(r.src == r.dst for r in tracer)
    assert net.bytes == sum(r.size for r in tracer if r.src != r.dst)


def _p_cw_m_mp3d() -> tuple[System, list]:
    cfg = SystemConfig(n_procs=4).with_protocol("P+CW+M")
    return System(cfg), build_workload("mp3d", cfg, scale=0.1)


def test_tracer_census_matches_network_counters():
    system, streams = _p_cw_m_mp3d()
    tracer = MessageTracer.attach(system)
    stats = system.run(streams)
    census = _remote_census(tracer)
    net = stats.network
    assert census == net.by_type
    assert sum(net.by_type.values()) == net.messages
    _assert_local_messages_are_not_traffic(tracer, net)
    assert net.by_type["WC_FLUSH"] > 0 and net.by_type["UPD_PROP"] > 0
    # named once, in MsgType order
    order = [MsgType[name] for name in net.by_type]
    assert order == sorted(order)


def test_mesh_network_census_matches_network_counters():
    cfg = SystemConfig(
        n_procs=4, network=NetworkConfig(kind=NetworkKind.MESH)
    ).with_protocol("P+CW+M")
    system = System(cfg)
    tracer = MessageTracer.attach(system)
    stats = system.run(build_workload("mp3d", cfg, scale=0.1))
    census = _remote_census(tracer)
    assert census == stats.network.by_type
    assert sum(census.values()) == stats.network.messages
    _assert_local_messages_are_not_traffic(tracer, stats.network)


def test_coverage_still_records_write_cache_flushes():
    system, streams = _p_cw_m_mp3d()
    coverage = CoverageTracker()
    coverage.instrument(system)
    system.run(streams)
    flushes = {state for state, event in coverage.directory if event == "WC_FLUSH"}
    assert flushes
    assert ("CLEAN", "RD_REQ") in coverage.directory
