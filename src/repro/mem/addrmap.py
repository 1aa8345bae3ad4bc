"""Address arithmetic: blocks, words, pages and home-node placement.

The shared address space is flat and byte-addressed.  Coherence operates
on 32-byte blocks; the write cache tracks dirty state per 4-byte word;
4-KB pages are allocated across nodes round-robin on the virtual page
number (paper §4).
"""

from __future__ import annotations

from dataclasses import dataclass

WORD_SIZE = 4


@dataclass(frozen=True)
class AddressMap:
    """Maps byte addresses to blocks, words, pages and home nodes."""

    block_size: int = 32
    page_size: int = 4096
    n_nodes: int = 16

    def block_of(self, addr: int) -> int:
        """Block number containing ``addr``."""
        return addr // self.block_size

    def block_base(self, block: int) -> int:
        """First byte address of ``block``."""
        return block * self.block_size

    def word_of(self, addr: int) -> int:
        """Word index (0..block_size/4-1) of ``addr`` within its block."""
        return (addr % self.block_size) // WORD_SIZE

    def words_per_block(self) -> int:
        """Number of 4-byte words per block."""
        return self.block_size // WORD_SIZE

    def home_of_block(self, block: int) -> int:
        """Home node of a block: round-robin page placement (§4)."""
        return (self.block_base(block) // self.page_size) % self.n_nodes

    def home_of(self, addr: int) -> int:
        """Home node of a byte address."""
        return self.home_of_block(self.block_of(addr))


class AddressSpace:
    """Bump allocator for laying out shared data structures.

    Workload generators carve the shared address space into named regions
    so that distinct data structures never share a cache block unless a
    workload deliberately asks for it (false-sharing experiments).
    """

    def __init__(self, amap: AddressMap, base: int = 0) -> None:
        self._amap = amap
        self._next = base
        self._regions: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, size: int, *, align: int | None = None) -> int:
        """Allocate ``size`` bytes aligned to ``align`` (default: block)."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if size <= 0:
            raise ValueError("size must be positive")
        align = align or self._amap.block_size
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        base = (self._next + align - 1) & ~(align - 1)
        self._next = base + size
        self._regions[name] = (base, size)
        return base

    def alloc_page_aligned(self, name: str, size: int) -> int:
        """Allocate a region starting on a fresh page."""
        return self.alloc(name, size, align=self._amap.page_size)

    def region(self, name: str) -> tuple[int, int]:
        """(base, size) of a named region."""
        return self._regions[name]
