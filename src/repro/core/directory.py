"""Directory state (paper §2).

The paper's machine keeps a **full-map** directory: a presence-flag
vector per memory block points to the nodes with a copy, held here as
each entry's ``sharers`` set.  BASIC needs N presence bits plus 3 state
bits per block (Table 1); the migratory optimization adds one
migratory bit and a log2(N)-bit pointer.

Entries are created lazily: a block never referenced is CLEAN with no
sharers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.states import MemoryState

# ----------------------------------------------------------------------
# per-block state
# ----------------------------------------------------------------------


@dataclass
class DirectoryEntry:
    """Stable directory state of one memory block."""

    state: MemoryState = MemoryState.CLEAN
    sharers: set[int] = field(default_factory=set)
    owner: int | None = None
    #: M: the block is currently deemed migratory (§3.2).
    migratory: bool = False
    #: M: pointer to the last node that obtained ownership.
    last_writer: int | None = None
    #: CW+M: last node whose write-cache flush updated this block.
    last_updater: int | None = None

    def holders(self) -> set[int]:
        """Every node the directory believes has a copy."""
        if self.state is MemoryState.MODIFIED:
            return {self.owner} if self.owner is not None else set()
        return set(self.sharers)

    def reset_sharers(self, nodes: Iterable[int] = ()) -> None:
        """Replace the sharer set, in place, with ``nodes``."""
        self.sharers.clear()
        self.sharers.update(nodes)


class Directory:
    """Lazy directory for the blocks homed at one node."""

    def __init__(self) -> None:
        self._entries: dict[int, DirectoryEntry] = {}

    def entry(self, block: int) -> DirectoryEntry:
        """The (lazily created) entry for ``block``."""
        ent = self._entries.get(block)
        if ent is None:
            ent = self._entries[block] = DirectoryEntry()
        return ent

    def known_blocks(self) -> list[int]:
        """Blocks with directory state (for invariant checks)."""
        return list(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries


def directory_bits_per_block(n_nodes: int, migratory: bool = False) -> int:
    """Full-map directory overhead in bits per memory block (Table 1).

    BASIC: 3 state bits + N presence bits.  M adds 1 migratory bit and
    a ceil(log2 N)-bit pointer.
    """
    bits = 3 + n_nodes
    if migratory:
        bits += 1 + math.ceil(math.log2(max(n_nodes, 2)))
    return bits
