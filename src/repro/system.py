"""Top-level machine: nodes + interconnect + message routing.

Builds the 16-node CC-NUMA machine of paper §2/§4, wires the selected
protocol extensions into every node, runs a set of per-processor
reference streams to completion and returns the collected statistics.
"""

from __future__ import annotations

import gc
from heapq import heappush
from typing import Iterable

from repro.config import SystemConfig
from repro.core.messages import (
    BLOCK_BYTES,
    HEADER_BYTES,
    HOME_BOUND,
    MSG_NAMES,
    SIZE_BY_TYPE,
    WORD_BYTES,
    Message,
    MsgType,
)
from repro.mem.addrmap import AddressMap
from repro.network import build_network
from repro.network.uniform import UniformNetwork
from repro.node.node import Node
from repro.node.processor import Op, Processor
from repro.sim.engine import SimulationError, Simulator
from repro.stats.counters import MachineStats

#: bound once (see the enum rule in "Performance notes",
#: docs/internals.md)
_XFER_ACK = MsgType.XFER_ACK


class System:
    """One configured multiprocessor ready to run workloads."""

    def __init__(self, cfg: SystemConfig) -> None:
        self.cfg = cfg
        self.sim = Simulator()
        self.stats = MachineStats.for_nodes(cfg.n_procs)
        self.amap = AddressMap(
            block_size=cfg.cache.block_size,
            page_size=cfg.cache.page_size,
            n_nodes=cfg.n_procs,
        )
        self.network = build_network(cfg.network, cfg.n_procs)
        self.nodes = [
            Node(i, self.sim, cfg, self.amap, self._send, self.stats.caches[i])
            for i in range(cfg.n_procs)
        ]
        self.processors: list[Processor] = []
        self._finished = 0
        #: constant node-to-node latency when the interconnect is the
        #: contention-free uniform network (the paper's default); None
        #: for topologies whose arrival time depends on placement/load.
        self._flat_latency = (
            self.network._latency
            if isinstance(self.network, UniformNetwork)
            else None
        )
        # transport hot-path caches: bus geometry is uniform across
        # nodes (cfg.timing), so the per-message reservations reduce to
        # arithmetic on each node's FCFS ledger, and the delivery
        # handler (home vs cache side) is resolved once at send time.
        self._bus_res = [n.bus._res for n in self.nodes]
        self._bus_width = cfg.timing.bus_width_bytes
        self._bus_cycle = cfg.timing.bus_transaction
        #: bus occupancy per message type, indexed by ``int(mtype)``;
        #: -1 for the variable-size types, computed per message.
        bus = self.nodes[0].bus
        self._occ_by_type = [
            bus.cycles_for(size) * bus.cycle_pclocks if size >= 0 else -1
            for size in SIZE_BY_TYPE
        ]
        #: bytes and data-carrying messages of the variable-size types
        #: sent remotely; the fixed-size types' totals follow from
        #: ``_msg_counts`` at the end of :meth:`run`.
        self._var_bytes = 0
        self._var_data_messages = 0
        # one handler table per node, indexed by message type: every
        # type is either home- or cache-bound, so the transport indexes
        # straight to the final handler with no membership test or
        # ``deliver`` frame per message.  The cache's table already
        # holds the extensions' types; a type nobody claimed falls to
        # ``CacheController.deliver``, which rejects it.
        n_types = len(SIZE_BY_TYPE)
        #: remote messages per type, indexed by ``int(mtype)``; named
        #: into ``stats.network.by_type`` at the end of :meth:`run`.
        self._msg_counts = [0] * n_types
        self._deliver_fns = []
        for n in self.nodes:
            cache = n.cache
            by_type = [cache.deliver] * n_types
            for mt, handler in cache._handlers.items():
                by_type[mt] = handler
            for mt in HOME_BOUND:
                by_type[mt] = n.home.handler_for(mt)
            self._deliver_fns.append(by_type)

    # ------------------------------------------------------------------
    # message transport
    # ------------------------------------------------------------------

    def _send(self, msg: Message, ready: int) -> None:
        """Route a message: source bus -> network -> destination bus.

        The hottest code in the simulator: the bus occupancy comes from
        a per-type table (variable-size kinds compute it from the
        message's size), the source-bus reservation and the uniform
        network's arrival arithmetic are inlined (other topologies
        compute arrival through the network), traffic is counted per
        type in an int-indexed list (bytes and data messages only for
        the variable-size kinds; :meth:`run` derives the rest), the
        delivery handler comes from a per-type table, and the delivery
        event is appended straight to its time's bucket of the event
        queue.
        """
        src, dst, mtype = msg.src, msg.dst, msg.mtype
        occ = self._occ_by_type[mtype]
        if occ < 0:
            # the variable-size kinds (Message.size_bytes, inlined): an
            # XFER_ACK carries the block back when the owner modified
            # it, the others carry their dirty words
            if mtype is _XFER_ACK:
                size = (
                    HEADER_BYTES + BLOCK_BYTES if msg.was_modified
                    else HEADER_BYTES
                )
            else:
                size = HEADER_BYTES + WORD_BYTES * msg.words
            # (SplitTransactionBus.cycles_for, inlined: a message is at
            # least a header, so it takes at least one cycle)
            occ = -(-size // self._bus_width) * self._bus_cycle
            if src != dst:
                self._var_bytes += size
                if size > HEADER_BYTES:
                    self._var_data_messages += 1
        # source-bus reservation (SplitTransactionBus.access, inlined)
        res = self._bus_res[src]
        free = res._free_at
        start = ready if ready > free else free
        t_out = start + occ
        res._free_at = t_out
        fn = self._deliver_fns[dst][mtype]
        sim = self.sim
        if src == dst:
            # local: a single traversal of the shared node bus
            entry = (fn, (msg, t_out))
            bucket = sim._buckets.get(t_out)
            if bucket is None:
                sim._buckets[t_out] = [entry]
                heappush(sim._times, t_out)
            else:
                bucket.append(entry)
            return
        self._msg_counts[mtype] += 1
        lat = self._flat_latency
        if lat is None:
            size = SIZE_BY_TYPE[mtype]
            arrive = self.network.arrival_time(
                src, dst, size if size >= 0 else msg.size_bytes, t_out
            )
        else:
            arrive = t_out + lat
        # both buses are the same width, so the destination-bus
        # occupancy equals the one just computed for the source
        entry = (self._deliver_remote, (msg, occ, fn, self._bus_res[dst]))
        bucket = sim._buckets.get(arrive)
        if bucket is None:
            sim._buckets[arrive] = [entry]
            heappush(sim._times, arrive)
        else:
            bucket.append(entry)

    def _deliver_remote(self, msg: Message, occ: int, fn, res) -> None:
        sim = self.sim
        # destination-bus reservation (SplitTransactionBus.access, inlined)
        free = res._free_at
        now = sim.now
        start = now if now > free else free
        t_in = start + occ
        res._free_at = t_in
        times = sim._times
        if (not times or times[0] > t_in) and t_in <= sim._until:
            # No event can fire before the destination bus hands the
            # message over, and scheduling the dispatch was this
            # event's last action -- so run it now with the clock
            # advanced.  Crediting keeps ``events_fired`` identical to
            # the fully event-driven schedule.
            sim.now = t_in
            sim._events_fired += 1
            fn(msg, t_in)
        else:
            entry = (fn, (msg, t_in))
            bucket = sim._buckets.get(t_in)
            if bucket is None:
                sim._buckets[t_in] = [entry]
                heappush(times, t_in)
            else:
                bucket.append(entry)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def _proc_finished(self, node_id: int) -> None:
        self._finished += 1

    def run(
        self,
        workloads: list[Iterable[Op]],
        max_events: int | None = 200_000_000,
    ) -> MachineStats:
        """Run one reference stream per processor to completion."""
        if len(workloads) != self.cfg.n_procs:
            raise ValueError(
                f"need {self.cfg.n_procs} workload streams, got {len(workloads)}"
            )
        self.processors = [
            Processor(
                i,
                self.sim,
                self.cfg,
                self.nodes[i].cache,
                workloads[i],
                self.stats.procs[i],
                self._proc_finished,
            )
            for i in range(self.cfg.n_procs)
        ]
        for proc in self.processors:
            proc.start()
        # The event loop allocates only short-lived tuples and
        # messages; pausing cyclic GC for the run avoids pointless
        # whole-heap collections triggered by that churn.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.sim.run(max_events=max_events)
        finally:
            if gc_was_enabled:
                gc.enable()
        if self._finished != self.cfg.n_procs:
            stuck = [p.node_id for p in self.processors if not p.finished]
            raise SimulationError(
                f"simulation quiesced with processors {stuck} unfinished "
                f"at t={self.sim.now} (deadlock or lost message)"
            )
        self.stats.execution_time = max(
            p.finish_time for p in self.stats.procs
        )
        net = self.stats.network
        counts = self._msg_counts
        net.messages = sum(counts)
        net.bytes = self._var_bytes + sum(
            n * size for n, size in zip(counts, SIZE_BY_TYPE) if size > 0
        )
        net.data_messages = self._var_data_messages + sum(
            n for n, size in zip(counts, SIZE_BY_TYPE) if size > HEADER_BYTES
        )
        net.by_type = {
            MSG_NAMES[mtype]: n
            for mtype, n in enumerate(counts)
            if n
        }
        net.peak_link_utilization = (
            self.network.max_link_utilization(self.stats.execution_time)
        )
        return self.stats


def run_system(cfg: SystemConfig, workloads: list[Iterable[Op]]) -> MachineStats:
    """Convenience helper: build a system, run it, return statistics."""
    return System(cfg).run(workloads)
