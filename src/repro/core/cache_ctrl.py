"""Lockup-free second-level cache controller.

This is the requester side of the **base write-invalidate protocol**:
it owns the FLC, the FLWB, the SLC and the SLWB, and implements the
paper's node behaviour:

* demand reads block the processor (blocking loads, §2); misses
  allocate an SLWB entry and go to the home node,
* writes drain from the FLWB into the SLC; writes to shared or invalid
  blocks send ownership requests,
* releases and barriers act as RCpc synchronization points: they wait
  for every write issued before them,
* incoming coherence traffic (invalidations, fetches) is serviced
  immediately, so the home never blocks on a cache.

Everything protocol-extension-specific -- prefetch fan-out (P), the
write cache and competitive updates (CW), migratory interrogations
(CW+M) -- lives in :mod:`repro.core.extensions` and is dispatched
through the node's :class:`~repro.core.extensions.ExtensionPipeline`
at the hook call sites below.  Extensions drive the controller through
its public surface (``send_home``, ``reply``, ``issue_prefetch``,
``hold_marker``, ``retry_read``, ...), never the other way around.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable

from repro.config import SystemConfig
from repro.core.extensions import ExtensionPipeline, build_pipeline
from repro.core.messages import Message, MsgType
from repro.core.states import CacheState
from repro.mem.addrmap import WORD_SIZE, AddressMap
from repro.mem.flc import FirstLevelCache
from repro.mem.slc import CacheLine, SecondLevelCache
from repro.mem.write_buffers import Flwb, FlwbEntry, Slwb
from repro.sim.engine import SimulationError, Simulator
from repro.sim.resource import FcfsResource
from repro.stats.classify import MissClassifier
from repro.stats.counters import CacheStats

SendFn = Callable[[Message, int], None]
DoneFn = Callable[[], None]

# The enum members the per-event code below reads, bound once: under
# CPython 3.11 every ``Enum.X`` read goes through ``EnumType``'s
# Python-level ``__getattr__`` hook, a module global does not (see
# "Performance notes" in docs/internals.md).
_SHARED = CacheState.SHARED
_DIRTY = CacheState.DIRTY
_MIG_CLEAN = CacheState.MIG_CLEAN
_RD_REQ = MsgType.RD_REQ
_RDX_REQ = MsgType.RDX_REQ
_OWN_REQ = MsgType.OWN_REQ
_WB = MsgType.WB
_REPL = MsgType.REPL
_LOCK_REQ = MsgType.LOCK_REQ
_LOCK_REL = MsgType.LOCK_REL
_BAR_ARRIVE = MsgType.BAR_ARRIVE
_RD_RPL = MsgType.RD_RPL
_RDX_RPL = MsgType.RDX_RPL
_FETCH_INV = MsgType.FETCH_INV
_INV_ACK = MsgType.INV_ACK
_XFER_ACK = MsgType.XFER_ACK


@dataclass(slots=True)
class _PendingRead:
    """An outstanding read (demand or prefetch) for one block."""

    block: int
    slwb_id: int
    is_prefetch: bool
    start: int
    demand_waiters: list[DoneFn] = field(default_factory=list)
    merged_prefetch: bool = False
    invalidated: bool = False
    deferred: list[Message] = field(default_factory=list)


@dataclass(slots=True)
class _PendingWrite:
    """An outstanding ownership request (OWN_REQ / RDX_REQ)."""

    block: int
    slwb_id: int
    start: int
    read_waiters: list[DoneFn] = field(default_factory=list)
    sc_waiter: DoneFn | None = None
    deferred: list[Message] = field(default_factory=list)


@dataclass(slots=True, eq=False)
class SyncMarker:
    """A release or barrier waiting for prior writes to perform.

    Compared by identity: two sync points with equal fields are still
    two markers, each held by the writes it waits for.
    """

    kind: str                      # 'release' | 'barrier'
    target: int                    # lock block or barrier id
    expected: int = 0              # barrier participant count
    outstanding: int = 0
    on_done: DoneFn | None = None  # barrier wake / SC release ack


class CacheController:
    """One node's FLC + SLC + write buffers + protocol requester FSM."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        cfg: SystemConfig,
        amap: AddressMap,
        slc_res: FcfsResource,
        send: SendFn,
        stats: CacheStats,
        pipeline: ExtensionPipeline | None = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.cfg = cfg
        self._timing = cfg.timing
        # hot-path copies of the two timing parameters every reference
        # touches (one attribute hop instead of two)
        self._flc_hit = cfg.timing.flc_hit
        self._slc_access = cfg.timing.slc_access
        self._flc_fill = cfg.timing.flc_fill
        self._amap = amap
        # block/word arithmetic inlined on the reference path
        self._bsize = amap.block_size
        self._slc_res = slc_res
        self._send = send
        self.stats = stats

        self.flc = FirstLevelCache(cfg.cache.flc_size, cfg.cache.block_size)
        self.slc = SecondLevelCache(cfg.cache.slc_size, cfg.cache.block_size)
        self.flwb = Flwb(cfg.effective_flwb_entries)
        self.slwb = Slwb(cfg.effective_slwb_entries)
        self.classifier = MissClassifier()

        #: the node's protocol-extension pipeline (shared with the home
        #: controller when built by :class:`repro.node.node.Node`).
        self.extensions = (
            pipeline if pipeline is not None else build_pipeline(cfg.protocol)
        )
        self.extensions.attach_cache(self)
        #: hot-path alias: the pipeline's extension tuple.  An empty
        #: pipeline is the common case (BASIC cells), and a falsy-tuple
        #: test is far cheaper than dispatching a no-op hook loop, so
        #: hook call sites below guard on this.
        self._exts = self.extensions.extensions
        # hot-path aliases into the FLC / FLWB internals (the dict and
        # deque are created once and only ever mutated in place)
        self._flc_sets = self.flc._sets
        self._flc_nsets = self.flc._n_sets
        self._flwb_fifo = self.flwb._fifo
        #: block -> home node (round-robin page placement, memoized)
        self._home_cache: dict[int, int] = {}

        self._pending_reads: dict[int, _PendingRead] = {}
        self._pending_writes: dict[int, _PendingWrite] = {}
        #: dirty victims awaiting WB_ACK (still service fetches)
        self._victims: dict[int, bool] = {}
        #: SLWB entry -> sync markers it holds back
        self._eid_markers: dict[int, list[SyncMarker]] = {}
        self._slwb_waiters: deque[Callable[[], None]] = deque()
        self._flwb_space_waiters: deque[Callable[[], None]] = deque()
        self._barrier_waiters: dict[int, DoneFn] = {}
        self._lock_waiters: dict[int, deque[DoneFn]] = {}
        self._release_acks: dict[int, deque[DoneFn]] = {}
        self._draining = False

        #: cache-bound message type -> ``handler(msg, t)``: the base
        #: protocol's types plus those the extensions claim.
        self._handlers = self.extensions.cache_handlers(
            self,
            {
                MsgType.RD_RPL: self._on_rd_rpl,
                MsgType.RDX_RPL: self._on_write_reply,
                MsgType.OWN_ACK: self._on_write_reply,
                MsgType.INV: self._on_inv,
                MsgType.FETCH: self._on_fetch,
                MsgType.FETCH_INV: self._on_fetch,
                MsgType.WB_ACK: self._on_wb_ack,
                MsgType.LOCK_GRANT: self._on_lock_grant,
                MsgType.LOCK_REL_ACK: self._on_lock_rel_ack,
                MsgType.BAR_WAKE: self._on_bar_wake,
            },
        )

    # ------------------------------------------------------------------
    # processor-facing API
    # ------------------------------------------------------------------

    # Each op has an explicit-issue-time ``*_at`` form taking the issue
    # time ``t`` (>= ``sim.now``) as an argument: the processor's tight
    # issue loop runs ahead of the wall clock and issues ops at logical
    # times the event queue has not reached yet.  Its crossing rule guarantees
    # no event fires in between, so performing the issue-time side
    # effects (FCFS reservations, buffer pushes, message sends,
    # scheduling) early preserves their exact order.  The classic
    # ``sim.now``-relative forms remain as thin wrappers.

    def read_at(self, addr: int, t: int, on_done: DoneFn) -> int:
        """Demand read issued at time ``t``.

        Returns the completion time when the reference resolves
        without needing ``on_done`` (FLC hit, FLWB store-to-load
        forward, or an SLC hit that no other event can interleave
        with) -- the caller continues synchronously, accounting for
        the elided completion event -- or ``-1`` after starting the
        SLC/miss path, which fires ``on_done`` when data is bound.
        """
        block = addr // self._bsize
        # FLC lookup and FLWB store-to-load probe, inlined (the two
        # checks every reference makes)
        if self._flc_sets.get(block % self._flc_nsets) == block:
            return t + self._flc_hit
        if self._flwb_fifo and self.flwb.contains_write_to(addr):
            # store-to-load forwarding: the word sits in the FLWB
            self.stats.flwb_forwards += 1
            return t + self._flc_hit
        sim = self.sim
        # SLC pipeline reservation (FcfsResource.finish_time, inlined)
        occ = self._slc_access
        res = self._slc_res
        ready = t + self._flc_hit
        free = res._free_at
        t1 = (ready if ready > free else free) + occ
        res._free_at = t1
        times = sim._times
        if (times and times[0] <= t1) or t1 > sim._until:
            entry = (self._slc_read, (block, on_done, t))
            bucket = sim._buckets.get(t1)
            if bucket is None:
                sim._buckets[t1] = [entry]
                heappush(times, t1)
            else:
                bucket.append(entry)
            return -1
        # No event fires before the SLC lookup completes: run what the
        # scheduled ``_slc_read`` would have done now, with the clock
        # advanced, and credit the elided event.
        sim.now = t1
        sim._events_fired += 1
        exts = self._exts
        line = self.slc.lookup(block)
        if line is not None:
            if exts:
                self.extensions.on_read_hit(self, line)
            self.flc.fill(block)
        elif exts and self.extensions.absorbs_read(self, block):
            line = True  # resolved from the write cache, no FLC fill
        else:
            # miss path, exactly as the scheduled event would run it
            pr = self._pending_reads.get(block)
            if pr is not None:
                if exts:
                    self.extensions.on_read_merged(self, pr)
                pr.demand_waiters.append(on_done)
                return -1
            pw = self._pending_writes.get(block)
            if pw is not None:
                pw.read_waiters.append(on_done)
                return -1
            if exts and self.extensions.defers_read(self, block, on_done, t):
                return -1
            self._demand_miss(block, on_done, t)
            return -1
        t_done = t1 + self._flc_fill
        if (not times or times[0] > t_done) and t_done <= sim._until:
            # the completion event is elidable too; the caller accounts
            # for it (boundary credit or an explicit reschedule)
            sim.now = t_done
            return t_done
        entry = (on_done, ())
        bucket = sim._buckets.get(t_done)
        if bucket is None:
            sim._buckets[t_done] = [entry]
            heappush(times, t_done)
        else:
            bucket.append(entry)
        return -1

    def read(self, addr: int, on_done: DoneFn) -> None:
        """Demand read; ``on_done`` fires when the data is bound."""
        done = self.read_at(addr, self.sim.now, on_done)
        if done >= 0:
            self.sim.at(done, on_done)

    def can_buffer_write(self) -> bool:
        """True when the FLWB can accept a write without stalling."""
        return not self.flwb.full

    def buffer_write_at(self, addr: int, t: int) -> None:
        """RC write path: enqueue in the FLWB (at time ``t``) and go."""
        # Flwb.push inlined (the caller has already checked for room)
        flwb = self.flwb
        writes = flwb._writes + 1
        if writes > flwb.capacity:
            raise OverflowError("FLWB overflow")
        flwb._writes = writes
        self._flwb_fifo.append(FlwbEntry(addr))
        if not self._draining:
            # start the drain (``_pump_drain`` inlined: the FIFO was
            # just pushed, so only the draining flag is tested)
            self._draining = True
            occ = self._slc_access
            res = self._slc_res
            free = res._free_at
            t1 = (t if t > free else free) + occ
            res._free_at = t1
            self.sim.at(t1, self._drain_head)

    def buffer_write(self, addr: int) -> None:
        """RC write path: enqueue in the FLWB and keep going."""
        self.buffer_write_at(addr, self.sim.now)

    def when_write_space(self, cb: Callable[[], None]) -> None:
        """Call ``cb`` when the FLWB has room again (processor stall)."""
        self._flwb_space_waiters.append(cb)

    def write_blocking_at(self, addr: int, on_done: DoneFn, t: int) -> None:
        """SC write path issued at ``t``; ``on_done`` when performed."""
        self.sim.at(
            self.slc_finish(t), self._write_blocking_at_slc, addr, on_done
        )

    def write_blocking(self, addr: int, on_done: DoneFn) -> None:
        """SC write path: ``on_done`` when globally performed."""
        self.write_blocking_at(addr, on_done, self.sim.now)

    def acquire_at(self, addr: int, on_done: DoneFn, t: int) -> None:
        """Acquire a lock at time ``t``; ``on_done`` on LOCK_GRANT."""
        block = self._amap.block_of(addr)
        self._lock_waiters.setdefault(block, deque()).append(on_done)
        self.send_home(_LOCK_REQ, block, t=t)

    def acquire(self, addr: int, on_done: DoneFn) -> None:
        """Acquire a lock; ``on_done`` on LOCK_GRANT."""
        self.acquire_at(addr, on_done, self.sim.now)

    def release_at(
        self, addr: int, t: int, on_performed: DoneFn | None = None
    ) -> None:
        """Release a lock (issued at ``t``) after earlier writes perform.

        Under RC the processor continues immediately; pass
        ``on_performed`` (SC) to learn when the release completes.
        """
        block = self._amap.block_of(addr)
        marker = SyncMarker(kind="release", target=block, on_done=on_performed)
        self.flwb.push(FlwbEntry(addr=-1, marker=marker))
        self._pump_drain(t)

    def release(self, addr: int, on_performed: DoneFn | None = None) -> None:
        """Release a lock after all earlier writes have performed."""
        self.release_at(addr, self.sim.now, on_performed)

    def barrier_at(
        self, bar_id: int, expected: int, on_done: DoneFn, t: int
    ) -> None:
        """Arrive at a barrier at time ``t``; ``on_done`` on wake."""
        marker = SyncMarker(
            kind="barrier", target=bar_id, expected=expected, on_done=on_done
        )
        self.flwb.push(FlwbEntry(addr=-1, marker=marker))
        self._pump_drain(t)

    def barrier(self, bar_id: int, expected: int, on_done: DoneFn) -> None:
        """Arrive at a barrier once earlier writes performed; wait wake."""
        self.barrier_at(bar_id, expected, on_done, self.sim.now)

    # ------------------------------------------------------------------
    # extension-facing API
    # ------------------------------------------------------------------

    def slc_finish(self, t: int) -> int:
        """Reserve the SLC pipeline for an access ready at ``t``;
        returns its completion time."""
        # FcfsResource.finish_time, inlined (one call per handler, not
        # two; ``read_at`` and the FLWB drain inline this too)
        occ = self._slc_access
        res = self._slc_res
        free = res._free_at
        end = (t if t > free else free) + occ
        res._free_at = end
        return end

    def has_pending(self, block: int) -> bool:
        """A read or ownership request for ``block`` is in flight."""
        return block in self._pending_reads or block in self._pending_writes

    def has_pending_read(self, block: int) -> bool:
        """A read (demand or prefetch) for ``block`` is in flight."""
        return block in self._pending_reads

    def retry_read(self, block: int, on_done: DoneFn, t0: int) -> None:
        """Re-enter a read an extension parked (e.g. behind a flush)."""
        self._slc_read(block, on_done, t0)

    def issue_prefetch(self, block: int) -> None:
        """Allocate an SLWB entry and request ``block`` non-bindingly.

        The caller must have checked :meth:`Slwb.has_room`.
        """
        eid = self.slwb.alloc()
        self._pending_reads[block] = _PendingRead(
            block=block, slwb_id=eid, is_prefetch=True, start=self.sim.now
        )
        self.send_home(_RD_REQ, block, prefetch=True)
        self.stats.prefetches_issued += 1

    def hold_marker(self, eid: int, marker: SyncMarker) -> None:
        """Make SLWB entry ``eid`` hold back ``marker``.

        Bookkeeping only: the caller increments ``marker.outstanding``
        where it counts the entry (arm/queue time, never twice).
        """
        self._eid_markers.setdefault(eid, []).append(marker)

    def relinquish_ownership(self, block: int) -> None:
        """Give an (unwanted) exclusive grant straight back to the home."""
        self._victims[block] = False
        self.send_home(_WB, block)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def _slc_read(self, block: int, on_done: DoneFn, t0: int) -> None:
        exts = self._exts
        line = self.slc.lookup(block)
        if line is not None:
            if exts:
                self.extensions.on_read_hit(self, line)
            self.flc.fill(block)
            self.sim.after(self._timing.flc_fill, on_done)
            return
        if exts and self.extensions.absorbs_read(self, block):
            self.sim.after(self._timing.flc_fill, on_done)
            return
        pr = self._pending_reads.get(block)
        if pr is not None:
            if exts:
                self.extensions.on_read_merged(self, pr)
            pr.demand_waiters.append(on_done)
            return
        pw = self._pending_writes.get(block)
        if pw is not None:
            pw.read_waiters.append(on_done)
            return
        if exts and self.extensions.defers_read(self, block, on_done, t0):
            return
        self._demand_miss(block, on_done, t0)

    def _demand_miss(self, block: int, on_done: DoneFn, t0: int) -> None:
        kind = self.classifier.classify(block)
        self.stats.demand_read_misses += 1
        if kind == MissClassifier.COLD:
            self.stats.cold_misses += 1
        elif kind == MissClassifier.COHERENCE:
            self.stats.coherence_misses += 1
        else:
            self.stats.replacement_misses += 1
        if self._exts:
            self.extensions.on_demand_miss(self, block)
        slwb = self.slwb
        if len(slwb._entries) < slwb.capacity:  # Slwb.has_room, inlined
            # common case: the caller made ``_issue_demand``'s checks in
            # this same event and ``on_demand_miss`` moves no block
            # state, so send straight away
            self._send_demand(block, on_done, t0)
        else:
            self._slwb_waiters.append(
                lambda: self._issue_demand(block, on_done, t0)
            )

    def _issue_demand(self, block: int, on_done: DoneFn, t0: int) -> None:
        """SLWB-waiter path: the state may have moved while it waited."""
        if self.slc.lookup(block) is not None:
            self.sim.after(0, on_done)
            return
        pr = self._pending_reads.get(block)
        if pr is not None:
            pr.demand_waiters.append(on_done)
            return
        pw = self._pending_writes.get(block)
        if pw is not None:
            pw.read_waiters.append(on_done)
            return
        if self._exts and self.extensions.defers_read(self, block, on_done, t0):
            return
        self._send_demand(block, on_done, t0)

    def _send_demand(self, block: int, on_done: DoneFn, t0: int) -> None:
        eid = self.slwb.alloc()
        self._pending_reads[block] = _PendingRead(
            block=block, slwb_id=eid, is_prefetch=False,
            start=t0, demand_waiters=[on_done],
        )
        self.send_home(_RD_REQ, block)
        if self._exts:
            self.extensions.on_miss_issued(self, block)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def _pump_drain(self, t: int) -> None:
        # ``buffer_write_at`` inlines this for the write path
        if self._draining or not self._flwb_fifo:
            return
        self._draining = True
        occ = self._slc_access
        res = self._slc_res
        free = res._free_at
        t1 = (t if t > free else free) + occ
        res._free_at = t1
        self.sim.at(t1, self._drain_head)

    def _drain_head(self) -> None:
        sim = self.sim
        times = sim._times
        flwb = self.flwb
        fifo = self._flwb_fifo
        space_waiters = self._flwb_space_waiters
        occ = self._slc_access
        res = self._slc_res
        while True:
            if not fifo:
                self._draining = False
                return
            head = fifo[0]
            # ``Flwb.pop`` and ``_notify_flwb_space``, inlined: a
            # marker holds no buffer entry, a write frees one
            if head.marker is not None:
                fifo.popleft()
                self._arm_marker(head.marker)
            elif self._apply_write(head.addr):
                fifo.popleft()
                flwb._writes -= 1
                while space_waiters and flwb._writes < flwb.capacity:
                    space_waiters.popleft()()
            else:
                # SLWB full: retry when an entry retires.  The waiter
                # runs synchronously from ``release_slwb`` -- mid-event
                # -- so it must take the non-advancing resume path.
                self.when_slwb_room(self._drain_resume)
                return
            # continue the drain; scheduling the next step is this
            # event's last action, so when no other event can fire
            # before the SLC pipeline frees up, run the step now with
            # the clock advanced (credited, keeping ``events_fired``
            # identical to the one-event-per-step schedule)
            if not fifo:
                self._draining = False
                return
            now = sim.now
            free = res._free_at
            t1 = (now if now > free else free) + occ
            res._free_at = t1
            if (times and times[0] <= t1) or t1 > sim._until:
                sim.at(t1, self._drain_head)
                return
            sim.now = t1
            sim._events_fired += 1

    def _drain_resume(self) -> None:
        """One drain step taken synchronously (SLWB-room waiter).

        Runs in the middle of whichever event retired the SLWB entry,
        so unlike ``_drain_head`` it never advances the clock: the next
        step is always a real scheduled event.
        """
        if self.flwb.empty:
            self._draining = False
            return
        head = self.flwb.peek()
        if head.marker is not None:
            self.flwb.pop()
            self._arm_marker(head.marker)
            self._continue_drain()
            return
        if self._apply_write(head.addr):
            self.flwb.pop()
            self._notify_flwb_space()
            self._continue_drain()
        else:
            self.when_slwb_room(self._drain_resume)

    def _continue_drain(self) -> None:
        if self.flwb.empty:
            self._draining = False
            return
        sim = self.sim
        sim.at(self.slc_finish(sim.now), self._drain_head)

    def _notify_flwb_space(self) -> None:
        # ``_drain_head`` inlines this
        while self._flwb_space_waiters and not self.flwb.full:
            self._flwb_space_waiters.popleft()()

    def _apply_write(self, addr: int) -> bool:
        """Perform one write at the SLC; False = wait for SLWB room."""
        bs = self._bsize
        block = addr // bs
        word = (addr % bs) // WORD_SIZE
        line = self.slc.lookup(block)
        if line is not None:
            state = line.state
            if state is _DIRTY:
                line.modified_since_update = True
                return True
            if state is _MIG_CLEAN:
                line.state = _DIRTY
                line.modified_since_update = True
                return True
        if self._exts:
            handled = self.extensions.on_write(self, block, word, line)
            if handled is not None:
                return handled
        # base write-invalidate ownership path
        if block in self._pending_writes:
            return True  # covered by the in-flight ownership request
        slwb = self.slwb
        if len(slwb._entries) >= slwb.capacity:  # Slwb.has_room, inlined
            return False
        self._issue_ownership(block, line, sc_waiter=None)
        return True

    def _issue_ownership(
        self, block: int, line: CacheLine | None, sc_waiter: DoneFn | None
    ) -> None:
        eid = self.slwb.alloc()
        self.stats.ownership_requests += 1
        self._pending_writes[block] = _PendingWrite(
            block=block, slwb_id=eid, start=self.sim.now, sc_waiter=sc_waiter
        )
        if line is not None or block in self._pending_reads:
            self.send_home(_OWN_REQ, block)
        else:
            self.send_home(_RDX_REQ, block)

    def _write_blocking_at_slc(self, addr: int, on_done: DoneFn) -> None:
        """SC write: stall until ownership is granted."""
        block = self._amap.block_of(addr)
        line = self.slc.lookup(block)
        if line is not None and line.state is _DIRTY:
            on_done()
            return
        if line is not None and line.state is _MIG_CLEAN:
            line.state = _DIRTY
            line.modified_since_update = True
            on_done()
            return
        pw = self._pending_writes.get(block)
        if pw is not None:
            # merge with an earlier pending write to the same block
            if pw.sc_waiter is None:
                pw.sc_waiter = on_done
            else:
                pw.read_waiters.append(on_done)
            return

        def issue() -> None:
            ln = self.slc.lookup(block)
            if ln is not None and ln.state is _DIRTY:
                self.sim.after(0, on_done)
                return
            if ln is not None and ln.state is _MIG_CLEAN:
                ln.state = _DIRTY
                ln.modified_since_update = True
                self.sim.after(0, on_done)
                return
            merged = self._pending_writes.get(block)
            if merged is not None:
                merged.read_waiters.append(on_done)
                return
            self._issue_ownership(block, ln, sc_waiter=on_done)

        self.when_slwb_room(issue)

    # ------------------------------------------------------------------
    # synchronization markers
    # ------------------------------------------------------------------

    def _arm_marker(self, marker: SyncMarker) -> None:
        """Register everything the sync point must wait for."""
        for pw in self._pending_writes.values():
            self.hold_marker(pw.slwb_id, marker)
            marker.outstanding += 1
        if self._exts:
            self.extensions.on_release(self, marker)
        if marker.outstanding == 0:
            self._fire_marker(marker)

    def _fire_marker(self, marker: SyncMarker) -> None:
        if marker.kind == "release":
            if marker.on_done is not None:
                self._release_acks.setdefault(marker.target, deque()).append(
                    marker.on_done
                )
            self.send_home(_LOCK_REL, marker.target)
        else:
            self._barrier_waiters[marker.target] = marker.on_done or (lambda: None)
            self._send_barrier_arrive(marker.target, marker.expected)

    def _marker_progress(self, eid: int) -> None:
        for marker in self._eid_markers.pop(eid, []):
            marker.outstanding -= 1
            if marker.outstanding == 0:
                self._fire_marker(marker)

    # ------------------------------------------------------------------
    # message send helpers
    # ------------------------------------------------------------------

    def send_home(
        self,
        mtype: MsgType,
        block: int,
        t: int | None = None,
        *,
        prefetch: bool = False,
        words: int = 0,
    ) -> None:
        """Send a request for ``block`` to its home node at ``t`` (now)."""
        dst = self._home_cache.get(block)
        if dst is None:
            dst = self._amap.home_of_block(block)
            self._home_cache[block] = dst
        # positional Message fields: a ``**kw`` pass-through costs a
        # dict build and unpack per send
        self._send(
            Message(mtype, self.node_id, dst, block, -1, prefetch, words),
            self.sim.now if t is None else t,
        )

    def reply(
        self,
        mtype: MsgType,
        dst: int,
        block: int,
        t: int,
        *,
        words: int = 0,
        grant: str = "S",
        was_modified: bool = False,
        drop: bool = False,
        give_up: bool = False,
    ) -> None:
        """Send a reply/ack message to ``dst`` at time ``t``."""
        self._send(
            Message(
                mtype, self.node_id, dst, block, -1, False, words, grant,
                was_modified, drop, give_up,
            ),
            t,
        )

    def _send_barrier_arrive(self, bar_id: int, expected: int) -> None:
        dst = bar_id % self.cfg.n_procs
        self._send(
            Message(
                _BAR_ARRIVE, src=self.node_id, dst=dst,
                block=bar_id, tag=expected,
            ),
            self.sim.now,
        )

    # ------------------------------------------------------------------
    # fills and evictions
    # ------------------------------------------------------------------

    def _fill(self, block: int, state: CacheState) -> CacheLine:
        line, victim = self.slc.insert(block, state)
        self.classifier.on_fill(block)
        if self._exts:
            self.extensions.on_fill(self, line)
        if victim is not None:
            self._evict(victim)
        return line

    def _evict(self, victim: CacheLine) -> None:
        self.classifier.on_eviction(victim.block)
        self.flc.invalidate(victim.block)  # inclusion
        state = victim.state
        if state is _DIRTY or state is _MIG_CLEAN:
            self.stats.writebacks += 1
            self._victims[victim.block] = state is _DIRTY
            self.send_home(_WB, victim.block)
        elif victim.block not in self._pending_writes:
            # no hint for a shared copy an ownership upgrade is already
            # replacing: queued at the home behind a later transaction,
            # the hint would drop the copy that transaction left here
            self.send_home(_REPL, victim.block)

    # ------------------------------------------------------------------
    # network delivery
    # ------------------------------------------------------------------

    def deliver(self, msg: Message, t: int) -> None:
        """Handle a cache-bound message arriving at time ``t``.

        The transport indexes :attr:`_handlers` once per type instead;
        a type nobody claimed lands here and is an error.
        """
        handler = self._handlers.get(msg.mtype)
        if handler is None:
            raise SimulationError(
                f"cache {self.node_id}: unexpected {msg.mtype}"
            )
        handler(msg, t)

    def _on_rd_rpl(self, msg: Message, t: int) -> None:
        block = msg.block
        pr = self._pending_reads.pop(block, None)
        if pr is None:
            raise SimulationError(f"stray RD_RPL for block {block}")
        t1 = self.slc_finish(t)
        state = _MIG_CLEAN if msg.grant == "MC" else _SHARED
        demand = bool(pr.demand_waiters) or pr.merged_prefetch
        if pr.invalidated and state is not _MIG_CLEAN:
            # An invalidation raced the (shared) data: bind the value
            # to the waiting read but keep no line.  Whether the INV
            # was serialized before or after our read, ending up
            # line-less is safe -- the directory at worst
            # overestimates our copy.  An exclusive (MC) grant can
            # never be trailed by an INV (owners receive fetches, not
            # invalidations), so any recorded INV predates the grant
            # and is ignored.
            self.classifier.on_fill(block)
            self.classifier.on_coherence_loss(block)
        else:
            line = self._fill(block, state)
            line.prefetched = pr.is_prefetch and not demand
        if pr.demand_waiters:
            done = t1 + self._flc_fill
            if not pr.invalidated:
                self.flc.fill(block)
            self.stats.read_miss_latency_total += done - pr.start
            self.stats.read_miss_latency_count += 1
            at = self.sim.at
            for cb in pr.demand_waiters:
                at(done, cb)
        self.release_slwb(pr.slwb_id)
        for deferred in pr.deferred:
            self.sim.at(t1, self.deliver, deferred, t1)

    def _on_write_reply(self, msg: Message, t: int) -> None:
        block = msg.block
        pw = self._pending_writes.pop(block, None)
        if pw is None:
            raise SimulationError(f"stray {msg.mtype} for block {block}")
        t1 = self.slc_finish(t)
        line = self.slc.lookup(block)
        if line is None:
            line = self._fill(block, _DIRTY)
        else:
            line.state = _DIRTY
        line.modified_since_update = True
        line.prefetched = False
        if pw.read_waiters:
            self.flc.fill(block)
            for cb in pw.read_waiters:
                self.sim.at(t1 + self._timing.flc_fill, cb)
        if pw.sc_waiter is not None:
            self.sim.at(t1, pw.sc_waiter)
        self.release_slwb(pw.slwb_id)
        for deferred in pw.deferred:
            self.sim.at(t1, self.deliver, deferred, t1)

    def _on_inv(self, msg: Message, t: int) -> None:
        block = msg.block
        self.stats.invalidations_received += 1
        words = self.extensions.on_invalidate(self, block) if self._exts else 0
        line = self.slc.invalidate(block)
        if line is not None:
            self.classifier.on_coherence_loss(block)
            self.flc.invalidate(block)
        pr = self._pending_reads.get(block)
        if pr is not None:
            pr.invalidated = True
        t1 = self.slc_finish(t)
        self.reply(_INV_ACK, msg.src, block, t1, words=words)

    def _on_fetch(self, msg: Message, t: int) -> None:
        block = msg.block
        # Defer the fetch only when the data is genuinely still in
        # flight (no valid line, no victim-buffer copy).  A valid line
        # must answer immediately even with an ownership upgrade
        # pending, because that upgrade may be queued at the home
        # *behind* this very fetch.  A block in the victim buffer
        # always means the fetch targets the old, evicted copy (home
        # processed our WB before granting anything newer, and
        # per-pair FIFO would have delivered the WB_ACK first).
        line = self.slc.lookup(block)
        if line is None and block not in self._victims:
            pr = self._pending_reads.get(block)
            if pr is not None:
                pr.deferred.append(msg)
                return
            pw = self._pending_writes.get(block)
            if pw is not None:
                pw.deferred.append(msg)
                return
        t1 = self.slc_finish(t)
        if line is not None and block not in self._victims:
            was_modified = line.state is _DIRTY
            dropped = False
            if msg.mtype is _FETCH_INV:
                self.slc.invalidate(block)
                self.flc.invalidate(block)
                self.classifier.on_coherence_loss(block)
                dropped = True
            else:
                line.state = _SHARED
                line.modified_since_update = False
        elif block in self._victims:
            was_modified = self._victims[block]
            dropped = True
        else:
            raise SimulationError(
                f"cache {self.node_id}: FETCH for absent block {block}"
            )
        if msg.requester >= 0:
            reply = _RDX_RPL if msg.grant == "X" else _RD_RPL
            self.reply(
                reply, msg.requester, block, t1, grant=msg.grant
            )
        self.reply(
            _XFER_ACK, msg.src, block, t1,
            was_modified=was_modified, drop=dropped,
        )

    def _on_wb_ack(self, msg: Message, t: int) -> None:
        self._victims.pop(msg.block, None)

    def _on_lock_grant(self, msg: Message, t: int) -> None:
        waiters = self._lock_waiters.get(msg.block)
        if not waiters:
            raise SimulationError(f"stray LOCK_GRANT for {msg.block}")
        waiters.popleft()()
        if not waiters:
            del self._lock_waiters[msg.block]

    def _on_lock_rel_ack(self, msg: Message, t: int) -> None:
        acks = self._release_acks.get(msg.block)
        if acks:
            acks.popleft()()
            if not acks:
                del self._release_acks[msg.block]

    def _on_bar_wake(self, msg: Message, t: int) -> None:
        cb = self._barrier_waiters.pop(msg.block, None)
        if cb is None:
            raise SimulationError(f"stray BAR_WAKE for barrier {msg.block}")
        cb()

    # ------------------------------------------------------------------
    # SLWB bookkeeping
    # ------------------------------------------------------------------

    def when_slwb_room(self, cb: Callable[[], None]) -> None:
        """Run ``cb`` now if the SLWB has room, else when it does."""
        slwb = self.slwb
        if len(slwb._entries) < slwb.capacity:  # Slwb.has_room, inlined
            cb()
        else:
            self._slwb_waiters.append(cb)

    def release_slwb(self, eid: int) -> None:
        """Retire SLWB entry ``eid``: markers progress, waiters run."""
        entries = self.slwb._entries
        entries.remove(eid)
        if self._eid_markers:
            self._marker_progress(eid)
        waiters = self._slwb_waiters
        if waiters:
            capacity = self.slwb.capacity
            while waiters and len(entries) < capacity:
                waiters.popleft()()

    # ------------------------------------------------------------------
    # introspection (tests, invariants)
    # ------------------------------------------------------------------

    @property
    def outstanding_requests(self) -> int:
        """Pending reads + writes + extension requests (quiescence)."""
        return (
            len(self._pending_reads)
            + len(self._pending_writes)
            + self.extensions.cache_outstanding(self)
        )

    @property
    def prefetcher(self):
        """The P extension's prefetch engine (None without P)."""
        ext = self.extensions.get("P")
        return ext.engine if ext is not None else None

    @property
    def wcache(self):
        """The CW extension's write cache (None without CW)."""
        ext = self.extensions.get("CW")
        return ext.wcache if ext is not None else None
