"""Trace-replay fast tier: a batched direct-execution timing model.

:func:`replay_trace` runs a recorded shared-reference stream
(:class:`~repro.trace.refstream.RefTrace`) through a self-contained
coherence and timing model instead of the discrete-event machine.
Where the event backend simulates every message, bus reservation and
buffer drain as its own scheduled event, the replay tier executes each
reference as one *atomic transaction*: the protocol state transition,
the message accounting and a contention-free latency charge all happen
at the issuing reference, and per-processor virtual clocks replace the
event heap.  Processors are interleaved in virtual-time order (the
earliest clock runs until it passes the next-earliest), so the global
reference order tracks the event schedule at reference granularity.

Fidelity contract (see ``docs/engine.md`` for the full statement):

* *Exact*: shared reference counts, per-processor op mix, and every
  purely stream-determined counter.
* *Faithful but order-sensitive*: miss classification and message
  counts follow the real protocol rules (write-invalidate base, P
  prefetching with exclusive read grants, CW write-cache/competitive
  updates, M migratory handoffs) applied to the replay interleaving;
  they drift from the event backend only where references race.
* *Approximate*: cycle counts.  Latencies are contention-free
  constants derived from :class:`~repro.config.TimingConfig`; queueing
  at buses, banks and the SLC pipeline is not modelled.

Replay is therefore valid for relative sweeps (sensitivity, scaling,
protocol ranking) and invalid for golden/paper tables, which must use
the event backend.  The model implements the paper's P, CW and M
extensions only; a replay spec enabling any other registered extension
is refused when the spec is built (see
:meth:`repro.sim.backend.ReplayBackend.validate`).
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.config import SystemConfig
from repro.core.messages import (
    BLOCK_BYTES,
    HEADER_BYTES,
    MSG_NAMES,
    SIZE_BY_TYPE,
    WORD_BYTES,
    MsgType,
)
from repro.sim.engine import SimulationError
from repro.stats.counters import MachineStats
from repro.trace.refstream import RefTrace

# line states (plain ints: the replay model has no per-line metadata
# object, just parallel dict entries)
_SHARED = 1
_DIRTY = 2
_EXCLUSIVE = 3      # exclusive-clean (P read grants, M migratory grants)

_OP_THINK, _OP_READ, _OP_WRITE = 0, 1, 2
_OP_ACQ, _OP_REL, _OP_BAR = 3, 4, 5


class _Latencies:
    """Contention-free latency constants for one configuration."""

    __slots__ = (
        "flc_hit", "flc_fill", "slc_hit", "read_local", "read_remote",
        "read_3hop", "own", "lock_rtt", "bar_lat", "drain", "net",
    )

    def __init__(self, cfg: SystemConfig) -> None:
        t = cfg.timing
        width = t.bus_width_bytes

        def occ(nbytes: int) -> int:
            cycles = -(-nbytes // width)
            return (cycles if cycles >= 1 else 1) * t.bus_transaction

        hdr = occ(HEADER_BYTES)
        data = occ(HEADER_BYTES + BLOCK_BYTES)
        net = cfg.network.uniform_latency
        self.net = net
        self.flc_hit = t.flc_hit
        self.flc_fill = t.flc_fill
        # SLC hit resolved inline: FLC probe + SLC pipe + FLC fill
        self.slc_hit = t.flc_hit + t.slc_access + t.flc_fill
        base = t.flc_hit + t.slc_access + t.flc_fill
        # request out, memory, data reply back (+ destination bus)
        self.read_local = base + hdr + t.memory_latency + data
        self.read_remote = base + hdr + net + t.memory_latency + data + net + data
        # dirty at a third node: request, forward, owner's data reply
        self.read_3hop = base + hdr + net + hdr + net + data + net + data
        # ownership upgrade: request + invalidation round + ack
        self.own = 2 * (hdr + net) + 2 * (hdr + net)
        self.lock_rtt = 2 * (hdr + net)
        self.bar_lat = hdr + net
        # one buffered write draining through the SLC pipeline
        self.drain = t.flc_hit + t.slc_access


class _Lock:
    """One lock's holder and FIFO wait queue."""

    __slots__ = ("held_by", "waiters")

    def __init__(self) -> None:
        self.held_by = -1
        self.waiters: list[int] = []


def replay_trace(cfg: SystemConfig, trace: RefTrace) -> MachineStats:
    """Replay ``trace`` on the machine ``cfg`` describes."""
    if trace.n_procs != cfg.n_procs:
        raise SimulationError(
            f"trace has {trace.n_procs} streams, config wants {cfg.n_procs}"
        )
    return _Replay(cfg, trace).run()


class _Replay:
    """One replay execution (single use)."""

    def __init__(self, cfg: SystemConfig, trace: RefTrace) -> None:
        self.cfg = cfg
        self.trace = trace
        self.n = cfg.n_procs
        self.lat = _Latencies(cfg)
        self.stats = MachineStats.for_nodes(self.n)
        self.bsize = cfg.cache.block_size
        self.blocks_per_page = cfg.cache.page_size // self.bsize

        proto = cfg.protocol
        self.p_on = proto.prefetch
        self.cw_on = proto.competitive_update
        self.m_on = proto.migratory
        self.pp = proto.prefetch_params
        self.cp = proto.competitive_params
        self.sc = cfg.consistency.value == "SC"

        n = self.n
        # per-node cache state
        self.flc_nsets = cfg.cache.flc_size // self.bsize
        self.flc = [dict() for _ in range(n)]
        slc_size = cfg.cache.slc_size
        self.slc_sets = (slc_size // self.bsize) if slc_size else 0
        self.slc_block = [dict() for _ in range(n)]   # key -> block
        self.slc_state = [dict() for _ in range(n)]   # block -> state
        self.slc_pref = [set() for _ in range(n)]     # prefetched, unused
        self.slc_fresh = [set() for _ in range(n)]    # accessed since update
        self.slc_count = [dict() for _ in range(n)]   # competitive countdown
        self.slc_mod = [set() for _ in range(n)]      # modified since update
        # miss classification
        self.ever = [set() for _ in range(n)]
        self.coh_lost = [set() for _ in range(n)]
        # directory
        self.sharers: dict[int, set] = {}
        self.owner: dict[int, int] = {}
        # M detection state (mirrors repro.core.migratory's policy)
        self.migratory: set[int] = set()
        self.last_writer: dict[int, int] = {}
        self.last_updater: dict[int, int] = {}
        # blocks written since the last incoming update (CW+M give-up)
        self.wrote_since = [set() for _ in range(n)]
        # CW write cache: direct-mapped like repro.mem.write_cache --
        # per node, (block % n_blocks) -> [block, set of dirty words]
        self.wcache = [dict() for _ in range(n)]
        self.wc_cap = cfg.cache.write_cache_blocks
        # adaptive sequential prefetching state
        self.pref_degree = [self.pp.initial_degree] * n
        self.pref_issued_w = [0] * n
        self.pref_useful_w = [0] * n
        # placement
        self.first_touch = cfg.page_placement == "first_touch"
        self.page_home: dict[int, int] = {}
        # per-proc execution state
        self.clock = [0] * n
        self.writes_done = [0] * n
        self.blocked = [False] * n
        # synchronization
        self.locks: dict[int, _Lock] = {}
        self.bar_arrivals: dict[int, list] = {}
        # network accounting
        ns = self.stats.network
        self.by_type = ns.by_type

    # -- infrastructure -------------------------------------------------

    def home_of(self, block: int) -> int:
        page = block // self.blocks_per_page
        home = self.page_home.get(page)
        if home is None:
            home = (self.toucher if self.first_touch
                    else page % self.n)
            self.page_home[page] = home
        return home

    def msg(self, mtype: int, src: int, dst: int, size: int = -1) -> None:
        """Account one message (local messages never hit the network)."""
        if src == dst:
            return
        if size < 0:
            size = SIZE_BY_TYPE[mtype]
            if size < 0:
                size = HEADER_BYTES
        ns = self.stats.network
        ns.messages += 1
        ns.bytes += size
        if size > HEADER_BYTES:
            ns.data_messages += 1
        name = MSG_NAMES[mtype]
        self.by_type[name] = self.by_type.get(name, 0) + 1

    # -- cache state helpers --------------------------------------------

    def install(self, node: int, block: int, state: int) -> None:
        """Fill ``block`` into node's SLC, evicting on conflict."""
        stats = self.stats.caches[node]
        key = block if not self.slc_sets else block % self.slc_sets
        blocks = self.slc_block[node]
        victim = blocks.get(key)
        if victim is not None and victim != block:
            vstate = self.slc_state[node].pop(victim, None)
            if vstate is not None:
                home = self.home_of(victim)
                if vstate in (_DIRTY, _EXCLUSIVE):
                    stats.writebacks += 1
                    self.msg(MsgType.WB, node, home)
                    self.msg(MsgType.WB_ACK, home, node)
                    if self.owner.get(victim) == node:
                        del self.owner[victim]
                else:
                    self.msg(MsgType.REPL, node, home)
                self.sharers.get(victim, set()).discard(node)
                self.coh_lost[node].discard(victim)
                self.flc[node].pop(victim % self.flc_nsets, None)
        blocks[key] = block
        self.slc_state[node][block] = state
        self.ever[node].add(block)
        self.coh_lost[node].discard(block)
        self.sharers.setdefault(block, set()).add(node)
        if state in (_DIRTY, _EXCLUSIVE):
            self.owner[block] = node

    def drop_copy(self, node: int, block: int, coherence: bool) -> None:
        """Remove node's copy (invalidation / update drop / fetch-away)."""
        state = self.slc_state[node].pop(block, None)
        if state is None:
            return
        key = block if not self.slc_sets else block % self.slc_sets
        if self.slc_block[node].get(key) == block:
            del self.slc_block[node][key]
        self.flc[node].pop(block % self.flc_nsets, None)
        self.sharers.get(block, set()).discard(node)
        if self.owner.get(block) == node:
            del self.owner[block]
        if coherence:
            self.coh_lost[node].add(block)
        self.slc_pref[node].discard(block)
        self.slc_mod[node].discard(block)

    def invalidate_sharers(self, block: int, keep: int, home: int) -> int:
        """INV every copy except ``keep``'s; returns sharer count."""
        holders = [q for q in self.sharers.get(block, ()) if q != keep]
        for q in holders:
            self.msg(MsgType.INV, home, q)
            self.msg(MsgType.INV_ACK, q, home, HEADER_BYTES)
            self.stats.caches[q].invalidations_received += 1
            self.drop_copy(q, block, coherence=True)
        return len(holders)

    # -- reference handlers ---------------------------------------------

    def do_read(self, p: int, block: int, t: int) -> int:
        """One shared read; returns its latency."""
        lat = self.lat
        # FLC probe
        if self.flc[p].get(block % self.flc_nsets) == block:
            return lat.flc_hit
        state = self.slc_state[p].get(block)
        if state is not None:
            # SLC hit
            if block in self.slc_pref[p]:
                self.slc_pref[p].discard(block)
                self.stats.caches[p].useful_prefetches += 1
                self.pref_useful_w[p] += 1
            self.slc_fresh[p].add(block)
            self.flc[p][block % self.flc_nsets] = block
            return lat.slc_hit
        if self.cw_on and self.wc_lookup(p, block) is not None:
            # read absorbed by the write cache
            return lat.slc_hit
        return self.demand_miss(p, block, t)

    def demand_miss(self, p: int, block: int, t: int) -> int:
        stats = self.stats.caches[p]
        stats.demand_read_misses += 1
        if block not in self.ever[p]:
            stats.cold_misses += 1
        elif block in self.coh_lost[p]:
            stats.coherence_misses += 1
        else:
            stats.replacement_misses += 1
        self.toucher = p
        home = self.home_of(block)
        self.msg(MsgType.RD_REQ, p, home)
        owner = self.owner.get(block)
        if owner is not None and owner != p:
            latency = self.serve_dirty_read(p, block, home, owner)
        else:
            # clean at home (or first touch): plain data reply
            self.msg(MsgType.RD_RPL, home, p)
            state = _SHARED
            if self.m_on and block in self.migratory:
                others = set(self.sharers.get(block, ())) - {p}
                if others:
                    # second reader on a clean migratory block: the
                    # pattern is read sharing -- revert
                    self.migratory.discard(block)
                else:
                    state = _EXCLUSIVE
            self.install(p, block, state)
            lat = self.lat
            latency = lat.read_local if home == p else lat.read_remote
        self.flc[p][block % self.flc_nsets] = block
        self.slc_fresh[p].add(block)
        stats.read_miss_latency_total += latency - self.lat.flc_hit
        stats.read_miss_latency_count += 1
        if self.p_on:
            self.issue_prefetches(p, block)
        return latency

    def serve_dirty_read(self, p: int, block: int, home: int, owner: int) -> int:
        """A read miss finding the block dirty/exclusive at ``owner``."""
        was_modified = self.slc_state[owner].get(block) == _DIRTY
        if self.m_on and block in self.migratory and not was_modified:
            # the exclusive copy is fetched away from an owner that
            # never wrote it: the prediction was wrong -- revert
            self.migratory.discard(block)
        if self.m_on and block in self.migratory:
            # migratory handoff: owner invalidated, requester gets the
            # (exclusive) copy directly
            self.msg(MsgType.FETCH_INV, home, owner)
            self.msg(MsgType.RD_RPL, owner, p)
            self.msg(MsgType.XFER_ACK, owner, home,
                     HEADER_BYTES + (BLOCK_BYTES if was_modified else 0))
            self.drop_copy(owner, block, coherence=True)
            self.install(p, block, _EXCLUSIVE)
        else:
            # demote the owner to shared, data to requester + home
            self.msg(MsgType.FETCH, home, owner)
            self.msg(MsgType.RD_RPL, owner, p)
            self.msg(MsgType.XFER_ACK, owner, home,
                     HEADER_BYTES + (BLOCK_BYTES if was_modified else 0))
            self.slc_state[owner][block] = _SHARED
            if self.owner.get(block) == owner:
                del self.owner[block]
            self.slc_mod[owner].discard(block)
            self.install(p, block, _SHARED)
        return self.lat.read_3hop

    def do_write(self, p: int, addr: int, t: int) -> int:
        """One shared write; returns the processor-visible latency."""
        block = addr // self.bsize
        state = self.slc_state[p].get(block)
        if state in (_DIRTY, _EXCLUSIVE):
            if state == _EXCLUSIVE:
                self.slc_state[p][block] = _DIRTY
            self.slc_mod[p].add(block)
            self.writes_done[p] = max(self.writes_done[p],
                                      t + self.lat.drain)
            return self.lat.flc_hit
        if self.cw_on:
            # CW never takes ownership: shared lines (and write
            # misses) absorb into the write cache and flush as updates
            return self.cw_write(p, addr, block, t)
        # base write-invalidate ownership path
        self.ownership(p, block, t, had_copy=state is not None)
        lat = self.lat.flc_hit if not self.sc else self.lat.own
        return lat

    def ownership(self, p: int, block: int, t: int, had_copy: bool) -> None:
        self.toucher = p
        home = self.home_of(block)
        stats = self.stats.caches[p]
        stats.ownership_requests += 1
        owner = self.owner.get(block)
        if had_copy:
            self.msg(MsgType.OWN_REQ, p, home)
            if self.m_on and not self.cw_on:
                # §3.2 detection: an ownership request from a sharer
                # while exactly one other copy -- the previous
                # writer's -- exists marks the block migratory
                others = set(self.sharers.get(block, ())) - {p}
                if len(others) == 1 and self.last_writer.get(block) in others:
                    self.migratory.add(block)
        else:
            self.msg(MsgType.RDX_REQ, p, home)
        if owner is not None and owner != p:
            self.msg(MsgType.FETCH_INV, home, owner)
            was_modified = self.slc_state[owner].get(block) == _DIRTY
            self.msg(MsgType.XFER_ACK, owner, home,
                     HEADER_BYTES + (BLOCK_BYTES if was_modified else 0))
            self.stats.caches[owner].invalidations_received += 1
            self.drop_copy(owner, block, coherence=True)
        else:
            self.invalidate_sharers(block, keep=p, home=home)
        if had_copy:
            self.msg(MsgType.OWN_ACK, home, p)
        else:
            self.msg(MsgType.RDX_RPL, home, p)
        self.install(p, block, _DIRTY)
        self.slc_mod[p].add(block)
        self.last_writer[block] = p
        self.writes_done[p] = max(self.writes_done[p], t + self.lat.own)

    def issue_prefetches(self, p: int, block: int) -> None:
        """Sequential prefetch of the blocks following a demand miss."""
        pp = self.pp
        stats = self.stats.caches[p]
        for k in range(1, self.pref_degree[p] + 1):
            cand = block + k
            if self.slc_state[p].get(cand) is not None:
                continue
            if self.cw_on and self.wc_lookup(p, cand) is not None:
                continue
            stats.prefetches_issued += 1
            self.pref_issued_w[p] += 1
            self.toucher = p
            home = self.home_of(cand)
            self.msg(MsgType.RD_REQ, p, home)
            owner = self.owner.get(cand)
            if owner is not None and owner != p:
                was_modified = self.slc_state[owner].get(cand) == _DIRTY
                self.msg(MsgType.FETCH, home, owner)
                self.msg(MsgType.RD_RPL, owner, p)
                self.msg(MsgType.XFER_ACK, owner, home,
                         HEADER_BYTES + (BLOCK_BYTES if was_modified else 0))
                self.slc_state[owner][cand] = _SHARED
                if self.owner.get(cand) == owner:
                    del self.owner[cand]
                self.slc_mod[owner].discard(cand)
                self.install(p, cand, _SHARED)
            else:
                self.msg(MsgType.RD_RPL, home, p)
                self.install(p, cand, _SHARED)
            self.slc_pref[p].add(cand)
            if self.pref_issued_w[p] >= pp.window:
                # adaptive degree: compare the useful fraction of the
                # last window against the two thresholds
                ratio = self.pref_useful_w[p] / self.pref_issued_w[p]
                if ratio > pp.high_mark:
                    self.pref_degree[p] = min(
                        self.pref_degree[p] + 1, pp.max_degree
                    )
                elif ratio < pp.low_mark:
                    self.pref_degree[p] = max(self.pref_degree[p] - 1, 1)
                self.pref_issued_w[p] = 0
                self.pref_useful_w[p] = 0

    # -- CW: write cache + competitive updates --------------------------

    def wc_lookup(self, p: int, block: int):
        """The dirty-word set ``block`` holds in p's write cache."""
        entry = self.wcache[p].get(block % self.wc_cap)
        if entry is not None and entry[0] == block:
            return entry[1]
        return None

    def cw_write(self, p: int, addr: int, block: int, t: int) -> int:
        """A write to a shared copy under CW: absorb in the write cache
        (or propagate per-write when the write cache is disabled)."""
        word = (addr % self.bsize) // WORD_BYTES
        if self.slc_state[p].get(block) is not None:
            # a write is a local access for the competitive counter
            self.slc_fresh[p].add(block)
        if not self.cp.use_write_cache:
            self.propagate_update(p, block, 1, t)
            return self.lat.flc_hit
        wc = self.wcache[p]
        idx = block % self.wc_cap
        entry = wc.get(idx)
        if entry is not None and entry[0] != block:
            # direct-mapped conflict: the resident entry flushes
            del wc[idx]
            self.stats.caches[p].write_cache_flushes += 1
            self.propagate_update(p, entry[0], len(entry[1]), t)
            entry = None
        if entry is None:
            entry = wc[idx] = [block, set()]
        entry[1].add(word)
        self.wrote_since[p].add(block)
        self.writes_done[p] = max(self.writes_done[p], t + self.lat.drain)
        return self.lat.flc_hit

    def flush_wc_block(self, p: int, block: int, t: int) -> None:
        idx = block % self.wc_cap
        entry = self.wcache[p].get(idx)
        if entry is None or entry[0] != block:
            return
        del self.wcache[p][idx]
        self.stats.caches[p].write_cache_flushes += 1
        self.propagate_update(p, block, len(entry[1]), t)

    def propagate_update(self, p: int, block: int, nwords: int, t: int) -> None:
        """Send the merged update home and run the competitive round."""
        self.toucher = p
        home = self.home_of(block)
        self.msg(MsgType.WC_FLUSH, p, home,
                 HEADER_BYTES + nwords * WORD_BYTES)
        self.wrote_since[p].discard(block)
        holders = set(self.sharers.get(block, ())) - {p}
        if (self.m_on and holders
                and len(self.sharers.get(block, ())) > 1
                and self.last_updater.get(block) not in (None, p)):
            # §3.4: interrogate every other copy holder instead of
            # updating it; holders that modified since the last update
            # give up their copies
            self.last_updater[block] = p
            give_ups = set()
            for q in sorted(holders):
                self.msg(MsgType.MIG_QUERY, home, q)
                gives = (block in self.wrote_since[q]
                         or self.wc_lookup(q, block) is not None)
                self.msg(MsgType.MIG_RPL, q, home)
                if gives:
                    give_ups.add(q)
                    if self.wc_lookup(q, block) is not None:
                        del self.wcache[q][block % self.wc_cap]
                    self.wrote_since[q].discard(block)
                    self.drop_copy(q, block, coherence=True)
            if give_ups == holders:
                # every holder gave up: migratory -- the flusher gets
                # the block back exclusively
                self.migratory.add(block)
                self.slc_state[p][block] = _DIRTY
                self.owner[block] = p
                self.slc_mod[p].add(block)
                self.msg(MsgType.WC_ACK, home, p)
                self.writes_done[p] = max(self.writes_done[p],
                                          t + self.lat.own)
                return
            remaining = holders - give_ups
            if not remaining:
                self.msg(MsgType.WC_ACK, home, p)
                self.writes_done[p] = max(self.writes_done[p],
                                          t + self.lat.own)
                return
        else:
            self.last_updater[block] = p
        # propagate the update to every other sharer; competitive
        # countdown drops copies not accessed since the last update
        threshold = self.cp.threshold
        for q in sorted(self.sharers.get(block, ())):
            if q == p:
                continue
            self.wrote_since[q].discard(block)
            self.msg(MsgType.UPD_PROP, home, q,
                     HEADER_BYTES + nwords * WORD_BYTES)
            if block in self.slc_fresh[q]:
                # accessed since the last update: the competitive
                # counter resets and this update is accepted
                self.slc_fresh[q].discard(block)
                count = threshold
            else:
                count = self.slc_count[q].get(block, threshold) - 1
            self.slc_count[q][block] = count
            if count <= 0:
                self.stats.caches[q].updates_dropped += 1
                self.msg(MsgType.UPD_ACK, q, home, HEADER_BYTES)
                self.drop_copy(q, block, coherence=True)
            else:
                self.stats.caches[q].updates_received += 1
                self.msg(MsgType.UPD_ACK, q, home, HEADER_BYTES)
            # an update arrived: local accesses must re-mark freshness
            self.flc[q].pop(block % self.flc_nsets, None)
        self.msg(MsgType.WC_ACK, home, p)
        self.writes_done[p] = max(self.writes_done[p],
                                  t + self.lat.own)

    def flush_write_cache(self, p: int, t: int) -> None:
        entries = list(self.wcache[p].values())
        self.wcache[p].clear()
        for block, words in entries:
            self.stats.caches[p].write_cache_flushes += 1
            self.propagate_update(p, block, len(words), t)

    # -- synchronization -------------------------------------------------

    def do_acquire(self, p: int, addr: int) -> bool:
        """Returns True when granted now, False when the proc blocks."""
        block = addr // self.bsize
        self.toucher = p
        home = self.home_of(block)
        self.msg(MsgType.LOCK_REQ, p, home)
        lock = self.locks.setdefault(block, _Lock())
        t = self.clock[p]
        if lock.held_by < 0:
            lock.held_by = p
            self.msg(MsgType.LOCK_GRANT, home, p)
            stall = self.lat.lock_rtt if home != p else self.lat.flc_hit
            ps = self.stats.procs[p]
            ps.busy += self.lat.flc_hit
            ps.acquire_stall += max(0, stall - self.lat.flc_hit)
            self.clock[p] = t + max(stall, self.lat.flc_hit)
            return True
        lock.waiters.append(p)
        self.blocked[p] = True
        return False

    def do_release(self, p: int, addr: int, t: int) -> int:
        block = addr // self.bsize
        if self.cw_on:
            self.flush_write_cache(p, t)
        # RC: the release waits for earlier writes off the critical path
        perform = max(t, self.writes_done[p])
        self.toucher = p
        home = self.home_of(block)
        self.msg(MsgType.LOCK_REL, p, home)
        lock = self.locks.get(block)
        release_t = perform + (self.lat.bar_lat if home != p else 0)
        if lock is not None and lock.held_by == p:
            if lock.waiters:
                q = lock.waiters.pop(0)
                lock.held_by = q
                self.msg(MsgType.LOCK_GRANT, home, q)
                grant = release_t + (self.lat.bar_lat if home != q else 0)
                qs = self.stats.procs[q]
                qs.busy += self.lat.flc_hit
                qs.acquire_stall += max(0, grant - self.clock[q])
                self.clock[q] = max(self.clock[q], grant)
                self.blocked[q] = False
                self.wake.append(q)
            else:
                lock.held_by = -1
        if self.sc:
            self.msg(MsgType.LOCK_REL_ACK, home, p)
            stall = max(0, release_t - t)
            self.stats.procs[p].release_stall += stall
            return max(self.lat.flc_hit, stall)
        return self.lat.flc_hit

    def do_barrier(self, p: int, bar_id: int, t: int) -> bool:
        """Returns True when the barrier released immediately."""
        if self.cw_on:
            self.flush_write_cache(p, t)
        arrive = max(t, self.writes_done[p])
        home = bar_id % self.n
        self.msg(MsgType.BAR_ARRIVE, p, home)
        arrivals = self.bar_arrivals.setdefault(bar_id, [])
        arrivals.append((p, arrive))
        if len(arrivals) < self.n:
            self.blocked[p] = True
            return False
        # last arrival: wake everyone at the join point
        join = max(a for _, a in arrivals) + self.lat.bar_lat
        for q, q_arrive in arrivals:
            self.msg(MsgType.BAR_WAKE, home, q)
            self.stats.procs[q].acquire_stall += max(0, join - self.clock[q])
            self.clock[q] = max(self.clock[q], join)
            if q != p:
                self.blocked[q] = False
                self.wake.append(q)
        del self.bar_arrivals[bar_id]
        return True

    # -- main loop -------------------------------------------------------

    def run(self) -> MachineStats:
        n = self.n
        heap = [(0, p) for p in range(n)]
        idx = [0] * n
        # plain lists index ~2x faster than array('q') in the op loop
        streams = [self.trace.ops(p).tolist() for p in range(n)]
        ends = [len(s) for s in streams]
        finished = 0
        self.wake: list[int] = []
        self.toucher = 0
        procs = self.stats.procs
        clocks = self.clock
        blocked = self.blocked
        wake = self.wake
        bs = self.bsize
        fh = self.lat.flc_hit
        do_read = self.do_read
        do_write = self.do_write
        do_acquire = self.do_acquire
        do_release = self.do_release
        do_barrier = self.do_barrier
        _think, _read, _write = _OP_THINK, _OP_READ, _OP_WRITE
        _acq, _rel, _bar = _OP_ACQ, _OP_REL, _OP_BAR
        while heap:
            t, p = heappop(heap)
            if blocked[p]:
                continue
            next_t = heap[0][0] if heap else None
            flat = streams[p]
            i = idx[p]
            end = ends[p]
            clock = clocks[p]
            ps = procs[p]
            self.toucher = p
            # run this proc until it passes the next-earliest clock,
            # blocks, or finishes its stream
            while i < end:
                code = flat[i]
                value = flat[i + 1]
                i += 2
                if code == _think:
                    ps.busy += value
                    clock += value
                elif code == _read:
                    ps.shared_reads += 1
                    clocks[p] = clock
                    lat = do_read(p, value // bs, clock)
                    if lat > fh:
                        ps.busy += fh
                        ps.read_stall += lat - fh
                    else:
                        ps.busy += lat
                    clock += lat
                elif code == _write:
                    ps.shared_writes += 1
                    clocks[p] = clock
                    lat = do_write(p, value, clock)
                    if lat > fh:
                        ps.busy += fh
                        ps.write_stall += lat - fh
                    else:
                        ps.busy += lat
                    clock += lat
                elif code == _acq:
                    ps.acquires += 1
                    clocks[p] = clock
                    if not do_acquire(p, value):
                        break
                    clock = clocks[p]
                elif code == _rel:
                    ps.releases += 1
                    clocks[p] = clock
                    clock += do_release(p, value, clock)
                    ps.busy += fh
                elif code == _bar:
                    ps.barriers += 1
                    clocks[p] = clock
                    do_barrier(p, value, clock)
                    if blocked[p]:
                        break
                    clock = clocks[p]
                else:
                    raise SimulationError(f"bad op code {code} in trace")
                if next_t is not None and clock > next_t and i < end:
                    break
            idx[p] = i
            if clock > clocks[p]:
                clocks[p] = clock
            if i >= end and not blocked[p]:
                if not ps.finish_time:
                    ps.finish_time = clocks[p]
                    finished += 1
            elif not blocked[p]:
                heappush(heap, (clocks[p], p))
            for q in wake:
                if idx[q] >= ends[q]:
                    if not procs[q].finish_time:
                        procs[q].finish_time = clocks[q]
                        finished += 1
                else:
                    heappush(heap, (clocks[q], q))
            wake.clear()
        if finished != n:
            stuck = [p for p in range(n) if not procs[p].finish_time]
            raise SimulationError(
                f"replay quiesced with processors {stuck} blocked "
                "(lost lock/barrier wake)"
            )
        self.stats.execution_time = max(ps.finish_time for ps in procs)
        return self.stats
