"""One processing node: bus, memory, SLC pipeline, controllers.

Figure 1 of the paper: processor + FLC + FLWB + SLC + SLWB connected
by a local bus to the node's share of physical memory and the network
interface.  Contention on the bus, the memory module and the SLC is
modelled with FCFS resources.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.cache_ctrl import CacheController, SendFn
from repro.core.extensions import build_pipeline
from repro.core.home import HomeController
from repro.mem.addrmap import AddressMap
from repro.node.bus import SplitTransactionBus
from repro.node.memory import InterleavedMemory
from repro.sim.engine import Simulator
from repro.sim.resource import FcfsResource
from repro.stats.counters import CacheStats


class Node:
    """A processor node of the CC-NUMA machine."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        cfg: SystemConfig,
        amap: AddressMap,
        send: SendFn,
        cache_stats: CacheStats,
    ) -> None:
        self.node_id = node_id
        self.bus = SplitTransactionBus(
            name=f"bus{node_id}",
            width_bytes=cfg.timing.bus_width_bytes,
            cycle_pclocks=cfg.timing.bus_transaction,
        )
        self.memory = InterleavedMemory(
            name=f"mem{node_id}",
            n_banks=cfg.timing.memory_banks,
            access_pclocks=cfg.timing.memory_latency,
        )
        self.slc_pipe = FcfsResource(name=f"slc{node_id}")
        #: one protocol-extension pipeline per node, shared by the
        #: requester and directory sides (extensions hold per-node state)
        self.extensions = build_pipeline(cfg.protocol)
        self.cache = CacheController(
            node_id, sim, cfg, amap, self.slc_pipe, send, cache_stats,
            pipeline=self.extensions,
        )
        self.home = HomeController(
            node_id,
            sim,
            cfg.timing,
            cfg.protocol,
            self.memory,
            send,
            pipeline=self.extensions,
        )
