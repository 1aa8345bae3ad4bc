"""Workload infrastructure.

Each workload module builds one reference stream per processor.  As in
the CacheMire methodology (paper §4), only *shared-data* references and
synchronization are emitted; instructions and private data are folded
into ``think`` cycles.  Streams are plain lists of ops:

    ('think', cycles) | ('read', addr) | ('write', addr)
    | ('acquire', addr) | ('release', addr) | ('barrier', id)

The generators are synthetic stand-ins for the five applications
(MP3D, Cholesky, Water, LU, Ocean): they reproduce each program's
*sharing signature* -- the mix of cold / replacement / coherence
misses, migratory read-write sequences, spatial locality and
synchronization intensity the protocol extensions are sensitive to --
which is what the extensions see, rather than the computation itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.mem.addrmap import AddressMap, AddressSpace

Op = tuple

BLOCK = 32


class StreamBuilder:
    """Convenience builder for one processor's reference stream."""

    def __init__(self, seed: int = 0) -> None:
        self.ops: list[Op] = []
        self.rng = random.Random(seed)

    def think(self, cycles: int) -> None:
        """Local computation (instructions + private data)."""
        if cycles > 0:
            self.ops.append(("think", cycles))

    def read(self, addr: int) -> None:
        """One shared read."""
        self.ops.append(("read", addr))

    def write(self, addr: int) -> None:
        """One shared write."""
        self.ops.append(("write", addr))

    def rmw(self, addr: int, think: int = 0) -> None:
        """Read-modify-write (the ``x := x + 1`` migratory idiom)."""
        self.read(addr)
        if think:
            self.think(think)
        self.write(addr)

    def acquire(self, addr: int) -> None:
        """Lock acquire."""
        self.ops.append(("acquire", addr))

    def release(self, addr: int) -> None:
        """Lock release."""
        self.ops.append(("release", addr))

    def barrier(self, bar_id: int) -> None:
        """Global barrier."""
        self.ops.append(("barrier", bar_id))


@dataclass(frozen=True)
class WorkloadLayout:
    """Shared address-space layout helpers for one workload."""

    cfg: SystemConfig

    def address_map(self) -> AddressMap:
        """The machine's address map."""
        return AddressMap(
            block_size=self.cfg.cache.block_size,
            page_size=self.cfg.cache.page_size,
            n_nodes=self.cfg.n_procs,
        )

    def space(self) -> AddressSpace:
        """A fresh allocator over the shared address space."""
        return AddressSpace(self.address_map())


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an iteration/size parameter, keeping a sane minimum."""
    return max(minimum, int(round(value * scale)))
