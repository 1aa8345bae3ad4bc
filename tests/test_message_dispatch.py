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
from repro.core.messages import (
    HEADER_BYTES,
    HOME_BOUND,
    MSG_NAMES,
    SIZE_BY_TYPE,
    Message,
    MsgType,
)
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


def _assert_totals_match_trace(tracer: MessageTracer, net) -> None:
    """The network counters, per type and in total, are the traced
    remote messages.  Local messages are not traffic, and the trace
    does contain some, so their exclusion is exercised."""
    remote = [r for r in tracer if r.src != r.dst]
    assert len(remote) < len(tracer)
    assert _remote_census(tracer) == net.by_type
    assert net.messages == len(remote) == sum(net.by_type.values())
    assert net.bytes == sum(r.size for r in remote)
    assert net.data_messages == sum(r.size > HEADER_BYTES for r in remote)


def _p_cw_m_mp3d() -> tuple[System, list]:
    cfg = SystemConfig(n_procs=4).with_protocol("P+CW+M")
    return System(cfg), build_workload("mp3d", cfg, scale=0.1)


#: (app, protocol) cells on the uniform network; between them they
#: send every variable-size message type remotely: WC_FLUSH and
#: UPD_PROP (always with data), XFER_ACK with and without data, and
#: INV_ACK (without, as no CW cell invalidates remotely at this size)
CENSUS_CELLS = [
    ("mp3d", "P+CW+M"),
    ("ocean", "P+CW+M"),
    ("lu", "P+CW+M"),
    ("cholesky", "BASIC"),
]
VARIABLE_SIZE_TYPES = {
    name for name, size in zip(MSG_NAMES, SIZE_BY_TYPE) if size < 0
}


@pytest.fixture(scope="module")
def census_runs() -> dict:
    """``{cell: (tracer, stats)}`` for every census cell."""
    runs = {}
    for app, protocol in CENSUS_CELLS:
        cfg = SystemConfig(n_procs=4).with_protocol(protocol)
        system = System(cfg)
        tracer = MessageTracer.attach(system)
        runs[app, protocol] = (
            tracer, system.run(build_workload(app, cfg, scale=0.1))
        )
    return runs


def _assert_census(tracer: MessageTracer, stats) -> None:
    net = stats.network
    _assert_totals_match_trace(tracer, net)
    # named once, in MsgType order
    order = [MsgType[name] for name in net.by_type]
    assert order == sorted(order)


def test_tracer_census_matches_network_counters(census_runs):
    tracer, stats = census_runs["mp3d", "P+CW+M"]
    _assert_census(tracer, stats)
    net = stats.network
    assert net.by_type["WC_FLUSH"] > 0 and net.by_type["UPD_PROP"] > 0


@pytest.mark.parametrize("cell", CENSUS_CELLS[1:], ids="/".join)
def test_variable_size_census_matches_network_counters(census_runs, cell):
    _assert_census(*census_runs[cell])


def test_census_cells_send_every_variable_size_type(census_runs):
    sent = {
        (r.mtype, r.size > HEADER_BYTES)
        for tracer, _stats in census_runs.values()
        for r in tracer
        if r.src != r.dst and r.mtype in VARIABLE_SIZE_TYPES
    }
    assert VARIABLE_SIZE_TYPES == {"WC_FLUSH", "UPD_PROP", "XFER_ACK", "INV_ACK"}
    assert {mtype for mtype, _data in sent} == VARIABLE_SIZE_TYPES
    for mtype in ("WC_FLUSH", "UPD_PROP", "XFER_ACK"):
        assert (mtype, True) in sent
    for mtype in ("XFER_ACK", "INV_ACK"):
        assert (mtype, False) in sent


def test_mesh_network_census_matches_network_counters():
    cfg = SystemConfig(
        n_procs=4, network=NetworkConfig(kind=NetworkKind.MESH)
    ).with_protocol("P+CW+M")
    system = System(cfg)
    tracer = MessageTracer.attach(system)
    stats = system.run(build_workload("mp3d", cfg, scale=0.1))
    _assert_totals_match_trace(tracer, stats.network)
    assert stats.network.data_messages > 0


def test_coverage_still_records_write_cache_flushes():
    system, streams = _p_cw_m_mp3d()
    coverage = CoverageTracker()
    coverage.instrument(system)
    system.run(streams)
    flushes = {state for state, event in coverage.directory if event == "WC_FLUSH"}
    assert flushes
    assert ("CLEAN", "RD_REQ") in coverage.directory
