"""CW: competitive update + write cache as a protocol extension
(§3.3 / §3.4).

Both halves of the mechanism live here:

**Requester side** -- writes to shared or invalid blocks are absorbed by
the per-node write cache; full write-cache entries flush to the home as
``WC_FLUSH`` requests; releases drain the write cache and wait for
every in-flight flush; incoming ``UPD_PROP`` messages run the
competitive-counter discipline of
:class:`repro.core.competitive.CompetitivePolicy`, and ``MIG_QUERY``
interrogations (§3.4, only sent when M is also enabled) answer whether
this node modified the block since the last update.

**Home side** -- ``WC_FLUSH`` requests update memory and propagate
selective-word updates to the other sharers (transaction kind
``upd``); a flusher that is the sole remaining sharer of a migratory
block is granted exclusivity; a flush to a dirty-elsewhere block first demotes the
owner (``fetch_flush``); under CW+M suspicious update sequences
trigger copy-holder interrogation (``migq``) and, when every holder
gave up its copy, migratory detection.

The update/invalidate *policy* stays in
:mod:`repro.core.competitive`; the migratory-candidate heuristics stay
in :mod:`repro.core.migratory`.  This module is the protocol mechanism
that used to be hard-wired into the cache and home controllers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.config import ProtocolConfig
from repro.core import competitive, migratory
from repro.core.competitive import CompetitivePolicy
from repro.core.extensions.base import ProtocolExtension
from repro.core.messages import Message, MsgType
from repro.core.states import CacheState, MemoryState
from repro.core.transactions import Xact
from repro.mem.write_buffers import SlwbKind
from repro.mem.write_cache import WriteCache, WriteCacheEntry
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cache_ctrl import CacheController, SyncMarker
    from repro.core.directory import DirectoryEntry
    from repro.core.home import HomeController
    from repro.mem.slc import CacheLine

# The enum members the per-event code below reads, bound once (see the
# enum rule in "Performance notes", docs/internals.md).
_DIRTY = CacheState.DIRTY
_CLEAN = MemoryState.CLEAN
_MODIFIED = MemoryState.MODIFIED
_WC_FLUSH = MsgType.WC_FLUSH
_WC_ACK = MsgType.WC_ACK
_UPD_PROP = MsgType.UPD_PROP
_UPD_ACK = MsgType.UPD_ACK
_MIG_QUERY = MsgType.MIG_QUERY
_MIG_RPL = MsgType.MIG_RPL
_FETCH = MsgType.FETCH
_SLWB_WC_FLUSH = SlwbKind.WC_FLUSH


class CompetitiveExtension(ProtocolExtension):
    """Competitive update with a per-node write cache."""

    name = "CW"
    #: the node's write cache, built by :meth:`attach_cache`; only the
    #: requester side reads it
    wcache: WriteCache

    def __init__(self, protocol: ProtocolConfig) -> None:
        self._protocol = protocol
        self.policy = CompetitivePolicy(protocol.competitive_params)
        self._ctrl: "CacheController | None" = None
        self._home: "HomeController | None" = None
        #: write-cache flushes in flight: block -> FIFO of SLWB ids
        self._pending_flushes: dict[int, deque[int]] = {}
        #: flush entries waiting for a free SLWB slot
        self._flush_queue: deque[tuple[WriteCacheEntry, list]] = deque()
        #: demand reads parked until a pending flush of the block acks
        self._read_waiters: dict[int, list[tuple[Callable[[], None], int]]] = {}

    # ==================================================================
    # requester side
    # ==================================================================

    def attach_cache(self, ctrl: "CacheController") -> None:
        self._ctrl = ctrl
        self.wcache = WriteCache(ctrl.cfg.cache.write_cache_blocks)

    def cache_handlers(self, ctrl: "CacheController") -> dict:
        return {
            MsgType.UPD_PROP: self._on_update,
            MsgType.MIG_QUERY: self._on_mig_query,
            MsgType.WC_ACK: self._on_wc_ack,
        }

    def _flush_in_flight(self, block: int) -> bool:
        """A flush of ``block`` awaits its WC_ACK or an SLWB slot.

        ``defers_read``, the per-miss caller, inlines this rule.
        """
        if block in self._pending_flushes:
            return True
        if not self._flush_queue:
            return False
        return any(entry.block == block for entry, _m in self._flush_queue)

    # -- reads ----------------------------------------------------------

    def on_read_hit(self, ctrl: "CacheController", line: "CacheLine") -> None:
        self.policy.on_local_access(line)

    def absorbs_read(self, ctrl: "CacheController", block: int) -> bool:
        # read hit in the write cache (§3.3)
        return self.wcache.lookup(block) is not None

    def defers_read(self, ctrl, block, on_done, t0) -> bool:
        # ``_flush_in_flight``, inlined: the flush queue is nearly
        # always empty, so a miss with no pending flush returns here
        if block not in self._pending_flushes and not (
            self._flush_queue
            and any(entry.block == block for entry, _m in self._flush_queue)
        ):
            return False
        # wait for the write-cache flush to settle: its WC_ACK may
        # grant (or force relinquishing) exclusivity, which must be
        # ordered before a new read request to the home.
        self._read_waiters.setdefault(block, []).append((on_done, t0))
        return True

    # -- writes ---------------------------------------------------------

    def on_write(self, ctrl, block, word, line) -> bool | None:
        if line is not None:
            self.policy.on_local_access(line, modifying=True)
        victim = self.wcache.write(block, word, line is not None)
        if victim is not None:
            self._queue_flush(victim, [])
        return True

    def on_fill(self, ctrl: "CacheController", line: "CacheLine") -> None:
        self.policy.on_fill(line)

    def on_invalidate(self, ctrl: "CacheController", block: int) -> int:
        entry = self.wcache.remove(block)
        return len(entry.dirty_words) if entry is not None else 0

    # -- flushes --------------------------------------------------------

    def _queue_flush(self, entry: WriteCacheEntry, markers: list) -> None:
        slwb = self._ctrl.slwb
        if len(slwb._entries) < slwb.capacity:  # Slwb.has_room, inlined
            self._issue_flush(entry, markers)
        else:
            self._flush_queue.append((entry, markers))
            self._ctrl.when_slwb_room(self._drain_flush_queue)

    def _drain_flush_queue(self) -> None:
        while self._flush_queue and self._ctrl.slwb.has_room():
            entry, markers = self._flush_queue.popleft()
            self._issue_flush(entry, markers)

    def _issue_flush(self, entry: WriteCacheEntry, markers: list) -> None:
        ctrl = self._ctrl
        block = entry.block
        eid = ctrl.slwb.alloc(_SLWB_WC_FLUSH)
        ctrl.stats.write_cache_flushes += 1
        fifo = self._pending_flushes.get(block)
        if fifo is None:
            fifo = self._pending_flushes[block] = deque()
        fifo.append(eid)
        for marker in markers:
            ctrl.hold_marker(eid, marker)
        ctrl.send_home(_WC_FLUSH, block, words=len(entry.dirty_words))

    # -- synchronization ------------------------------------------------

    def on_release(self, ctrl: "CacheController", marker: "SyncMarker") -> None:
        waiting_eids: list[int] = []
        for fifo in self._pending_flushes.values():
            waiting_eids.extend(fifo)
        for entry in self.wcache.drain():
            self._queue_flush(entry, markers=[marker])
            marker.outstanding += 1
        for _entry, markers in self._flush_queue:
            if marker not in markers:
                markers.append(marker)
                marker.outstanding += 1
        for eid in waiting_eids:
            ctrl.hold_marker(eid, marker)
            marker.outstanding += 1

    def cache_outstanding(self, ctrl: "CacheController") -> int:
        return (
            sum(len(f) for f in self._pending_flushes.values())
            + len(self._flush_queue)
        )

    # -- home-originated messages ---------------------------------------

    def _on_update(self, msg: Message, t: int) -> None:
        ctrl = self._ctrl
        block = msg.block
        ctrl.stats.updates_received += 1
        t1 = ctrl.slc_finish(t)
        line = ctrl.slc.lookup(block)
        if line is None:
            drop = not ctrl.has_pending_read(block)
        else:
            drop = self.policy.on_update(line)
            # force the next local read through to the SLC so local
            # activity remains visible to the competitive counter
            ctrl.flc.invalidate(block)
            if drop:
                ctrl.slc.invalidate(block)
                ctrl.classifier.on_coherence_loss(block)
                ctrl.stats.updates_dropped += 1
        ctrl.reply(_UPD_ACK, msg.src, block, t1, drop=drop)

    def _on_mig_query(self, msg: Message, t: int) -> None:
        ctrl = self._ctrl
        block = msg.block
        t1 = ctrl.slc_finish(t)
        line = ctrl.slc.lookup(block)
        words = 0
        if line is None and ctrl.has_pending_read(block):
            # a fresh copy is already on its way to us: we are a
            # reader, not a modifier -- keep the (incoming) copy
            give_up = False
        elif line is None:
            give_up = True
        elif line.modified_since_update or self.wcache.lookup(block) is not None:
            # modified since the last update from home: give up (§3.4)
            give_up = True
            entry = self.wcache.remove(block)
            if entry is not None:
                words = len(entry.dirty_words)
            ctrl.slc.invalidate(block)
            ctrl.flc.invalidate(block)
            ctrl.classifier.on_coherence_loss(block)
        else:
            give_up = False
        ctrl.reply(
            _MIG_RPL, msg.src, block, t1, give_up=give_up, words=words
        )

    def _on_wc_ack(self, msg: Message, t: int) -> None:
        ctrl = self._ctrl
        block = msg.block
        fifo = self._pending_flushes.get(block)
        if not fifo:
            raise SimulationError(f"stray WC_ACK for block {block}")
        eid = fifo.popleft()
        if not fifo:
            del self._pending_flushes[block]
        if msg.exclusive:
            line = ctrl.slc.lookup(block)
            if line is not None:
                line.state = _DIRTY
                line.modified_since_update = True
            else:
                # the SLC copy was victimized while the flush was in
                # flight: relinquish the surprise ownership right away
                ctrl.relinquish_ownership(block)
        ctrl.release_slwb(eid)
        # parked reads are rare: test for them before the flush scan
        if block in self._read_waiters and not self._flush_in_flight(block):
            for cb, t0 in self._read_waiters.pop(block):
                ctrl.retry_read(block, cb, t0)

    # ==================================================================
    # home side
    # ==================================================================

    def attach_home(self, home: "HomeController") -> None:
        self._home = home

    def home_request_handlers(self, home: "HomeController") -> dict:
        return {MsgType.WC_FLUSH: self._on_flush}

    def home_ack_handlers(self, home: "HomeController") -> dict:
        return {
            "upd": (MsgType.UPD_ACK, self._on_upd_ack),
            "migq": (MsgType.MIG_RPL, self._on_mig_rpl),
            "fetch_flush": (MsgType.XFER_ACK, self._finish_fetch_flush),
        }

    def _on_flush(self, msg: Message, entry: "DirectoryEntry", t: int) -> None:
        home = self._home
        src = msg.src
        block = msg.block
        if entry.state is _MODIFIED:
            if entry.owner == src:
                # flusher already owns the block exclusively
                home.reply(
                    _WC_ACK, src, block,
                    home.mem_access(t, block), exclusive=True,
                )
                return
            # another node holds it dirty: demote it first, then replay
            t2 = home.mem_access(t, block)
            home.open_xact(
                block, Xact(kind="fetch_flush", orig=msg, old_owner=entry.owner)
            )
            # requester=-1: demote and ack home, no data forwarding
            home.reply(_FETCH, entry.owner, block, t2, requester=-1)
            return
        t2 = home.mem_access(t, block)
        others = entry.sharers - {src}
        wants_migq = migratory.wants_interrogation(self._protocol, entry, msg)
        entry.last_updater = src
        if wants_migq:
            # §3.4: interrogate every other copy holder
            home.open_xact(
                block,
                Xact(kind="migq", orig=msg, acks_left=len(others),
                     targets=set(others)),
            )
            for node in sorted(others):
                home.reply(_MIG_QUERY, node, block, t2)
            return
        if not others:
            self._finish_flush_sole(home, msg, entry, t2)
            return
        home.open_xact(
            block,
            Xact(kind="upd", orig=msg, acks_left=len(others)),
        )
        for node in sorted(others):
            home.reply(_UPD_PROP, node, block, t2, words=msg.words)

    def _on_upd_ack(
        self, msg: Message, xact: Xact, entry: "DirectoryEntry", t: int
    ) -> None:
        xact.acks_left -= 1
        if msg.drop:
            xact.droppers.add(msg.src)
        if xact.acks_left == 0:
            self._finish_update(self._home, msg.block, xact, entry, t)

    def _on_mig_rpl(
        self, msg: Message, xact: Xact, entry: "DirectoryEntry", t: int
    ) -> None:
        home = self._home
        if msg.words:
            t = home.mem_access(t, msg.block)  # piggybacked words
        xact.acks_left -= 1
        if msg.give_up:
            xact.give_ups.add(msg.src)
        if xact.acks_left == 0:
            self._finish_interrogation(home, msg.block, xact, entry, t)

    def absorb_ack_payload(
        self, home: "HomeController", msg: Message, t: int
    ) -> int:
        if msg.words:
            # apply write-cache words piggybacked on the INV_ACK
            return home.mem_access(t, msg.block)
        return t

    # -- transaction completion -----------------------------------------

    def _finish_fetch_flush(
        self, msg: Message, xact: Xact, entry: "DirectoryEntry", t: int
    ) -> None:
        home = self._home
        if msg.was_modified:
            t = home.mem_access(t, msg.block)  # absorb the writeback
        entry.state = _CLEAN
        entry.owner = None
        entry.reset_sharers()
        if not msg.drop and xact.old_owner is not None:
            entry.sharers.add(xact.old_owner)
        home.close_xact(msg.block)
        home.process_request(xact.orig, t)
        home.drain_pending(msg.block)

    def _finish_update(
        self, home: "HomeController", block: int, xact: Xact,
        entry: "DirectoryEntry", t: int,
    ) -> None:
        entry.sharers -= xact.droppers
        self._finish_flush_sole_or_shared(home, block, xact, entry, t)

    def _finish_interrogation(
        self, home: "HomeController", block: int, xact: Xact,
        entry: "DirectoryEntry", t: int,
    ) -> None:
        src = xact.orig.src
        if migratory.confirms_interrogation(xact.targets, xact.give_ups):
            # every other holder gave up its copy: migratory (§3.4)
            entry.sharers -= xact.give_ups
            entry.migratory = True
            home.migratory_detections += 1
            self._finish_flush_sole_or_shared(home, block, xact, entry, t)
            return
        entry.sharers -= xact.give_ups
        remaining = entry.sharers - {src}
        if not remaining:
            self._finish_flush_sole_or_shared(home, block, xact, entry, t)
            return
        # not migratory: continue as a normal update propagation
        xact.kind = "upd"
        xact.acks_left = len(remaining)
        xact.droppers = set()
        for node in sorted(remaining):
            home.reply(_UPD_PROP, node, block, t, words=xact.orig.words)

    def _finish_flush_sole_or_shared(
        self, home: "HomeController", block: int, xact: Xact,
        entry: "DirectoryEntry", t: int,
    ) -> None:
        src = xact.orig.src
        others = entry.sharers - {src}
        if not others:
            self._finish_flush_sole(home, xact.orig, entry, t)
        else:
            home.reply(_WC_ACK, src, block, t, exclusive=False)
        home.close_xact(block)
        home.drain_pending(block)

    def _finish_flush_sole(
        self, home: "HomeController", msg: Message,
        entry: "DirectoryEntry", t: int,
    ) -> None:
        """No other sharer remains: maybe grant exclusivity (§3.3).

        Migratory blocks (CW+M, §3.4) migrate to the writer so that
        update propagation stops; any other block stays shared.
        """
        src = msg.src
        exclusive = competitive.grants_exclusivity_on_flush(entry, src)
        if exclusive:
            entry.state = _MODIFIED
            entry.owner = src
            entry.sharers.clear()
            entry.last_writer = src
        home.reply(_WC_ACK, src, msg.block, t, exclusive=exclusive)

    # -- reporting ------------------------------------------------------

    def stats_hooks(self) -> dict[str, int]:
        return {
            "pending_flushes": sum(
                len(f) for f in self._pending_flushes.values()
            ),
            "queued_flushes": len(self._flush_queue),
        }
