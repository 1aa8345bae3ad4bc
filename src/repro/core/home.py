"""Home-node (directory) controller.

Implements the **base write-invalidate protocol** of paper §2: read
misses served from memory or fetched from the owner, ownership
requests that invalidate the sharers, writebacks and replacement
hints, plus the lock and barrier tables.

Transient directory states are realized as per-block
:class:`~repro.core.transactions.Xact` records; requests that hit a
busy block are queued and replayed in order, which makes the home the
serialization point exactly as in the paper.

The home-side halves of the protocol extensions -- migratory detection
and exclusive read grants (M), write-cache flush/update/interrogation
transactions (CW) -- live in :mod:`repro.core.extensions` and are
dispatched through the node's
:class:`~repro.core.extensions.ExtensionPipeline` at the hook call
sites below.  Extensions drive the controller through its public
surface (``mem_access``, ``reply``, ``open_xact``, ``close_xact``,
``process_request``, ``drain_pending``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.config import ProtocolConfig, TimingConfig
from repro.core.directory import Directory, DirectoryEntry
from repro.core.extensions import ExtensionPipeline, build_pipeline
from repro.core.messages import Message, MsgType
from repro.core.states import MemoryState
from repro.core.transactions import Xact
from repro.sim.engine import SimulationError, Simulator
from repro.sync.barriers import BarrierTable
from repro.sync.locks import LockTable

if TYPE_CHECKING:  # pragma: no cover -- avoids a core <-> node cycle
    from repro.node.memory import InterleavedMemory

SendFn = Callable[[Message, int], None]

#: historical name, kept for importers.
_Xact = Xact

# The enum members the per-request code below reads, bound once (see
# the enum rule in "Performance notes", docs/internals.md).
_CLEAN = MemoryState.CLEAN
_MODIFIED = MemoryState.MODIFIED
_RDX_REQ = MsgType.RDX_REQ
_RD_RPL = MsgType.RD_RPL
_RDX_RPL = MsgType.RDX_RPL
_OWN_ACK = MsgType.OWN_ACK
_INV = MsgType.INV
_FETCH = MsgType.FETCH
_FETCH_INV = MsgType.FETCH_INV
_WB_ACK = MsgType.WB_ACK
_LOCK_GRANT = MsgType.LOCK_GRANT
_LOCK_REL_ACK = MsgType.LOCK_REL_ACK
_BAR_WAKE = MsgType.BAR_WAKE


class HomeController:
    """Directory, lock and barrier controller for one node's memory."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        timing: TimingConfig,
        protocol: ProtocolConfig,
        memory: "InterleavedMemory",
        send: SendFn,
        pipeline: ExtensionPipeline | None = None,
    ) -> None:
        self.node_id = node_id
        self._sim = sim
        self._timing = timing
        self._protocol = protocol
        self._memory = memory
        self._send = send
        # hot-path caches for ``mem_access`` (one reservation per
        # directory operation): the module's bank ledgers and geometry
        self._banks = memory._banks
        self._n_banks = memory.n_banks
        self._mem_occ = memory.access_pclocks
        self.directory = Directory()
        self._dir_entries = self.directory._entries
        self.locks = LockTable()
        self.barriers = BarrierTable()
        #: the node's protocol-extension pipeline (shared with the
        #: cache controller when built by :class:`repro.node.node.Node`).
        self.extensions = (
            pipeline if pipeline is not None else build_pipeline(protocol)
        )
        self.extensions.attach_home(self)
        #: hot-path alias: the pipeline's extension tuple.  An empty
        #: pipeline (BASIC cells) makes every hook a no-op, and the
        #: falsy-tuple test below is far cheaper than the dispatch loop.
        self._exts = self.extensions.extensions
        #: request type -> ``handler(msg, entry, t)`` against a stable
        #: block: the base protocol's plus those the extensions claim.
        self._request_handlers = self.extensions.home_request_handlers(
            self,
            {
                MsgType.RD_REQ: self._handle_read,
                MsgType.RDX_REQ: self._handle_write,
                MsgType.OWN_REQ: self._handle_write,
                MsgType.WB: self._handle_writeback,
                MsgType.REPL: self._handle_replacement,
            },
        )
        #: transaction kind -> (the ack type that answers it,
        #: ``handler(msg, xact, entry, t)``).
        self._ack_handlers = self.extensions.home_ack_handlers(
            self,
            {
                "fetch_read": (MsgType.XFER_ACK, self._finish_fetch),
                "fetchinv_read": (MsgType.XFER_ACK, self._finish_fetch),
                "fetchinv_write": (MsgType.XFER_ACK, self._finish_fetch),
                "inv": (MsgType.INV_ACK, self._on_inv_ack),
            },
        )
        self._xacts: dict[int, Xact] = {}
        self._pending: dict[int, deque[Message]] = {}
        self.migratory_detections = 0
        self.migratory_reversions = 0

    # -- helpers --------------------------------------------------------

    def mem_access(self, t: int, block: int) -> int:
        """Charge one memory/directory access; returns completion time.

        The module is fully interleaved (§4): the bank serving
        ``block`` is occupied for the full access latency, but other
        banks keep serving in parallel.  (InterleavedMemory.access,
        inlined: every directory operation pays this.)
        """
        occ = self._mem_occ
        res = self._banks[block % self._n_banks]
        free = res._free_at
        start = t if t > free else free
        end = start + occ
        res._free_at = end
        return end

    def reply(
        self,
        mtype: MsgType,
        dst: int,
        block: int,
        t: int,
        *,
        requester: int = -1,
        prefetch: bool = False,
        words: int = 0,
        grant: str = "S",
        exclusive: bool = False,
    ) -> None:
        """Send a protocol message to cache ``dst`` at time ``t``."""
        self._send(
            Message(
                mtype, self.node_id, dst, block, requester, prefetch, words,
                grant, False, False, False, exclusive,
            ),
            t,
        )

    def busy(self, block: int) -> bool:
        """True if the block is in a transient state."""
        return block in self._xacts

    def open_xact(self, block: int, xact: Xact) -> None:
        """Put ``block`` into a transient state."""
        self._xacts[block] = xact

    def close_xact(self, block: int) -> None:
        """End ``block``'s transient state (callers drain the queue)."""
        del self._xacts[block]

    # -- entry point ----------------------------------------------------

    def deliver(self, msg: Message, t: int) -> None:
        """Handle a home-bound message arriving at time ``t``."""
        self.handler_for(msg.mtype)(msg, t)

    def handler_for(self, mtype: MsgType) -> Callable[[Message, int], None]:
        """The direct handler for a home-bound message type.

        The transport resolves the handler once per type when the
        machine is built; :meth:`deliver` is the generic entry point.
        Anything but a request, lock or barrier message must be an ack
        completing a transaction.
        """
        if mtype in self._request_handlers:
            return self._deliver_request
        if mtype is MsgType.LOCK_REQ:
            return self._handle_lock_req
        if mtype is MsgType.LOCK_REL:
            return self._handle_lock_rel
        if mtype is MsgType.BAR_ARRIVE:
            return self._handle_barrier
        return self._handle_ack

    def _deliver_request(self, msg: Message, t: int) -> None:
        if msg.block in self._xacts:
            self._pending.setdefault(msg.block, deque()).append(msg)
            return
        self.process_request(msg, t)

    # -- stable-state request processing ---------------------------------

    def process_request(self, msg: Message, t: int) -> None:
        """Process a request against a stable (non-busy) block."""
        entry = self._dir_entries.get(msg.block)
        if entry is None:
            entry = self._dir_entries[msg.block] = DirectoryEntry()
        handler = self._request_handlers.get(msg.mtype)
        if handler is None:
            raise SimulationError(
                f"home {self.node_id}: unhandled request {msg.mtype}"
            )
        handler(msg, entry, t)

    def _handle_read(self, msg: Message, entry: DirectoryEntry, t: int) -> None:
        req = msg.src
        if entry.state is _CLEAN:
            t2 = self.mem_access(t, msg.block)
            if self._exts and self.extensions.grants_exclusive_read(
                self, entry, msg
            ):
                # exclusive grant straight from memory (§3.2)
                entry.state = _MODIFIED
                entry.owner = req
                entry.sharers.clear()
                self.reply(
                    _RD_RPL, req, msg.block, t2,
                    grant="MC", prefetch=msg.prefetch,
                )
                return
            entry.sharers.add(req)
            self.reply(
                _RD_RPL, req, msg.block, t2,
                grant="S", prefetch=msg.prefetch,
            )
            return
        # MODIFIED: fetch from the owner (4-transfer miss)
        owner = entry.owner
        if owner is None:
            raise SimulationError(f"MODIFIED block {msg.block} with no owner")
        if owner == req:
            raise SimulationError(
                f"node {req} read-missed block {msg.block} it owns"
            )
        t2 = self.mem_access(t, msg.block)
        if self._exts and self.extensions.grants_exclusive_read(
            self, entry, msg
        ):
            self.open_xact(
                msg.block, Xact(kind="fetchinv_read", orig=msg, old_owner=owner)
            )
            self.reply(
                _FETCH_INV, owner, msg.block, t2,
                requester=req, grant="MC", prefetch=msg.prefetch,
            )
        else:
            self.open_xact(
                msg.block, Xact(kind="fetch_read", orig=msg, old_owner=owner)
            )
            self.reply(_FETCH, owner, msg.block, t2, requester=req)

    def _handle_write(self, msg: Message, entry: DirectoryEntry, t: int) -> None:
        req = msg.src
        if entry.state is _MODIFIED:
            owner = entry.owner
            if owner == req:
                # stale upgrade after an exclusivity grant raced it
                self.reply(
                    _OWN_ACK, req, msg.block, self.mem_access(t, msg.block)
                )
                return
            t2 = self.mem_access(t, msg.block)
            self.open_xact(
                msg.block, Xact(kind="fetchinv_write", orig=msg, old_owner=owner)
            )
            self.reply(
                _FETCH_INV, owner, msg.block, t2, requester=req, grant="X"
            )
            return
        # CLEAN
        others = entry.sharers - {req}
        if self._exts:
            self.extensions.on_ownership_requested(self, entry, msg)
        needs_data = msg.mtype is _RDX_REQ or req not in entry.sharers
        t2 = self.mem_access(t, msg.block)
        if others:
            self.open_xact(
                msg.block,
                Xact(
                    kind="inv", orig=msg, acks_left=len(others),
                    needs_data=needs_data,
                ),
            )
            for node in sorted(others):
                self.reply(_INV, node, msg.block, t2, requester=req)
            return
        self._grant_ownership(msg.block, entry, req, needs_data, t2)

    def _grant_ownership(
        self, block: int, entry: DirectoryEntry, req: int, needs_data: bool, t: int
    ) -> None:
        entry.state = _MODIFIED
        entry.owner = req
        entry.sharers.clear()
        entry.last_writer = req
        if needs_data:
            self.reply(_RDX_RPL, req, block, t)
        else:
            self.reply(_OWN_ACK, req, block, t)

    def _handle_writeback(self, msg: Message, entry: DirectoryEntry, t: int) -> None:
        t2 = self.mem_access(t, msg.block)
        if entry.state is _MODIFIED and entry.owner == msg.src:
            entry.state = _CLEAN
            entry.owner = None
        # stale writebacks (the block was fetched away first) still
        # update memory harmlessly.
        self.reply(_WB_ACK, msg.src, msg.block, t2)

    def _handle_replacement(
        self, msg: Message, entry: DirectoryEntry, t: int
    ) -> None:
        entry.sharers.discard(msg.src)

    # -- synchronization ---------------------------------------------------

    def _handle_lock_req(self, msg: Message, t: int) -> None:
        t2 = self.mem_access(t, msg.block)
        if self.locks.request(msg.block, msg.src):
            self.reply(_LOCK_GRANT, msg.src, msg.block, t2)

    def _handle_lock_rel(self, msg: Message, t: int) -> None:
        t2 = self.mem_access(t, msg.block)
        nxt = self.locks.release(msg.block, msg.src)
        if nxt is not None:
            self.reply(_LOCK_GRANT, nxt, msg.block, t2)
        self.reply(_LOCK_REL_ACK, msg.src, msg.block, t2)

    def _handle_barrier(self, msg: Message, t: int) -> None:
        t2 = self.mem_access(t, msg.block)
        wake = self.barriers.arrive(msg.block, msg.src, msg.tag)
        if wake is not None:
            for node in wake:
                self.reply(_BAR_WAKE, node, msg.block, t2)

    # -- transaction completion -------------------------------------------

    def _handle_ack(self, msg: Message, t: int) -> None:
        xact = self._xacts.get(msg.block)
        if xact is None:
            raise SimulationError(
                f"home {self.node_id}: stray {msg.mtype} for block {msg.block}"
            )
        ack = self._ack_handlers.get(xact.kind)
        if ack is None or msg.mtype is not ack[0]:
            raise SimulationError(
                f"home {self.node_id}: unexpected {msg.mtype} for "
                f"{xact.kind} transaction on block {msg.block}"
            )
        ack[1](msg, xact, self.directory.entry(msg.block), t)

    def _on_inv_ack(
        self, msg: Message, xact: Xact, entry: DirectoryEntry, t: int
    ) -> None:
        if self._exts:
            t = self.extensions.absorb_ack_payload(self, msg, t)
        xact.acks_left -= 1
        if xact.acks_left == 0:
            self._finish_invalidation(msg.block, xact, entry, t)

    def _finish_fetch(
        self, msg: Message, xact: Xact, entry: DirectoryEntry, t: int
    ) -> None:
        if msg.was_modified:
            t = self.mem_access(t, msg.block)  # absorb the carried writeback
        req = xact.orig.src
        block = msg.block
        if xact.kind == "fetch_read":
            entry.state = _CLEAN
            entry.owner = None
            entry.reset_sharers((req,))
            if not msg.drop and xact.old_owner is not None:
                entry.sharers.add(xact.old_owner)
        elif xact.kind == "fetchinv_read":
            entry.owner = req  # stays MODIFIED, exclusivity migrates
            if self._exts:
                self.extensions.on_exclusive_read_transfer(self, entry, msg)
        else:  # fetchinv_write
            entry.owner = req
            entry.last_writer = req
        self.close_xact(block)
        self.drain_pending(block)

    def _finish_invalidation(
        self, block: int, xact: Xact, entry: DirectoryEntry, t: int
    ) -> None:
        req = xact.orig.src
        entry.sharers &= {req}
        if xact.needs_data:
            t = self.mem_access(t, block)
        self._grant_ownership(block, entry, req, xact.needs_data, t)
        self.close_xact(block)
        self.drain_pending(block)

    def drain_pending(self, block: int) -> None:
        """Replay requests queued while ``block`` was in transit."""
        queue = self._pending.get(block)
        while queue and not self.busy(block):
            self.process_request(queue.popleft(), self._sim.now)
        if queue is not None and not queue:
            del self._pending[block]
