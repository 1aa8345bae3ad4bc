"""Second-level cache (SLC) line store.

Paper §2: direct-mapped, write-back, lockup-free, maintains inclusion
over the FLC.  The default configuration is an *infinite* SLC (§4); the
bounded direct-mapped variant is used in the §5.4 sensitivity study.

This module stores lines and their per-line protocol metadata; the
protocol state machine itself lives in :mod:`repro.core.cache_ctrl`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.states import CacheState

#: bound once: per-event code reads no ``Enum.X`` (see "Performance
#: notes" in docs/internals.md)
_INVALID = CacheState.INVALID


@dataclass(slots=True)
class CacheLine:
    """One SLC line with the extension metadata of Table 1."""

    block: int
    state: CacheState
    #: P: brought in by a prefetch and not yet referenced (1 of the
    #: 2 extra bits per line; the second marks it counted as useful).
    prefetched: bool = False
    #: CW: competitive countdown.  Preset to the threshold on load and
    #: on every local access; an incoming update decrements it only if
    #: no local access intervened since the previous update ("if a
    #: number of global updates equal to the competitive threshold
    #: reach the cache with no intervening local access, the block is
    #: invalidated", §3.3) -- actively used copies survive.
    comp_count: int = 0
    #: CW: local access since the last update from home.
    accessed_since_update: bool = True
    #: CW+M: block written locally since the last update from home
    #: (the extra bit of §3.4).
    modified_since_update: bool = False


class SecondLevelCache:
    """Infinite or bounded direct-mapped SLC."""

    def __init__(self, size_bytes: int | None, block_size: int) -> None:
        self._infinite = size_bytes is None
        if size_bytes is not None:
            if size_bytes % block_size:
                raise ValueError("SLC size must be a multiple of block size")
            self._n_sets = size_bytes // block_size
        else:
            self._n_sets = 0
        #: key -> line; key is the block number (infinite) or set index.
        self._lines: dict[int, CacheLine] = {}

    @property
    def infinite(self) -> bool:
        """True for the paper's default infinite SLC."""
        return self._infinite

    # The line key -- the block number (infinite) or its set index --
    # is computed in place in each method below.

    def lookup(self, block: int) -> CacheLine | None:
        """The valid line holding ``block``, or None."""
        line = self._lines.get(
            block if self._infinite else block % self._n_sets
        )
        if (
            line is not None
            and line.block == block
            and line.state is not _INVALID
        ):
            return line
        return None

    def insert(self, block: int, state: CacheState) -> tuple[CacheLine, CacheLine | None]:
        """Install ``block``; returns (new line, evicted valid line or None)."""
        if state is _INVALID:
            raise ValueError("cannot insert an INVALID line")
        key = block if self._infinite else block % self._n_sets
        victim = self._lines.get(key)
        if victim is not None and (victim.block == block or victim.state is _INVALID):
            victim = None
        line = CacheLine(block=block, state=state)
        self._lines[key] = line
        return line, victim

    def invalidate(self, block: int) -> CacheLine | None:
        """Invalidate ``block`` if present; returns the old line."""
        key = block if self._infinite else block % self._n_sets
        line = self._lines.get(key)
        if line is not None and line.block == block and line.state is not _INVALID:
            del self._lines[key]
            return line
        return None

    def resident_lines(self) -> list[CacheLine]:
        """All valid lines (for invariant checks and statistics)."""
        return [ln for ln in self._lines.values() if ln.state is not _INVALID]

    def __len__(self) -> int:
        return len(self.resident_lines())
