"""First-level cache (FLC).

Paper §2: direct-mapped, write-through, no allocation on write misses,
blocking on read misses.  Only presence is tracked -- data values are
not simulated.  Inclusion with the SLC is enforced from the outside
(the SLC controller invalidates FLC lines when SLC lines leave).
"""

from __future__ import annotations


class FirstLevelCache:
    """Direct-mapped presence-only first-level cache."""

    def __init__(self, size_bytes: int, block_size: int) -> None:
        if size_bytes % block_size:
            raise ValueError("FLC size must be a multiple of the block size")
        self._n_sets = size_bytes // block_size
        #: set index -> resident block number
        self._sets: dict[int, int] = {}

    # The set index ``block % self._n_sets`` is computed in place:
    # ``fill`` runs on every SLC hit, and the cache controller and the
    # issue loop probe ``_sets`` the same way.

    def lookup(self, block: int) -> bool:
        """True if ``block`` is resident."""
        return self._sets.get(block % self._n_sets) == block

    def fill(self, block: int) -> int | None:
        """Install ``block``; returns the evicted block, if any."""
        idx = block % self._n_sets
        victim = self._sets.get(idx)
        self._sets[idx] = block
        return victim if victim is not None and victim != block else None

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if resident; returns True if it was."""
        idx = block % self._n_sets
        if self._sets.get(idx) == block:
            del self._sets[idx]
            return True
        return False

    def resident_blocks(self) -> set[int]:
        """All blocks currently resident (for invariant checks)."""
        return set(self._sets.values())
