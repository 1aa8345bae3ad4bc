"""The write cache of the competitive-update mechanism (paper §3.3).

A small direct-mapped cache that allocates blocks on *writes only* and
keeps a dirty/valid bit per 4-byte word.  Consecutive writes to the
same block are combined; at a release, or when a block is victimized,
the dirty words are sent to the home node in a single request
(selective-word transmission).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class WriteCacheEntry:
    """One write-cache block with per-word dirty bits.

    :meth:`WriteCache.write` passes the first dirty word's set itself,
    so the default factory runs only for entries built elsewhere.
    """

    block: int
    dirty_words: set[int] = field(default_factory=set)
    #: processor held an SLC copy when the entry was allocated; the
    #: home uses this to decide whether the flusher stays a sharer.
    had_copy: bool = False


class WriteCache:
    """Direct-mapped write-combining cache (default: four blocks)."""

    def __init__(self, n_blocks: int) -> None:
        if n_blocks < 1:
            raise ValueError("write cache needs at least one block")
        self._n_blocks = n_blocks
        self._entries: dict[int, WriteCacheEntry] = {}

    # The direct-mapped index ``block % self._n_blocks`` is computed in
    # place: ``write`` runs on every CW write that drains from the FLWB.

    def lookup(self, block: int) -> WriteCacheEntry | None:
        """The entry for ``block`` if resident."""
        entry = self._entries.get(block % self._n_blocks)
        if entry is not None and entry.block == block:
            return entry
        return None

    def write(self, block: int, word: int, had_copy: bool) -> WriteCacheEntry | None:
        """Record a write; returns a victimized entry needing a flush.

        If ``block`` conflicts with a resident entry, that entry is
        removed and returned so the controller can flush it.
        """
        idx = block % self._n_blocks
        entries = self._entries
        entry = entries.get(idx)
        if entry is not None:
            if entry.block == block:
                entry.dirty_words.add(word)
                return None
            # conflict: the resident entry is the victim.  Deleting it
            # (not overwriting in place) moves the new entry to the end
            # of the dict, the order ``drain`` flushes in.
            victim = entry
            del entries[idx]
        else:
            victim = None
        entries[idx] = WriteCacheEntry(block, {word}, had_copy)
        return victim

    def remove(self, block: int) -> WriteCacheEntry | None:
        """Remove the entry for ``block`` (flush or invalidation)."""
        idx = block % self._n_blocks
        entry = self._entries.get(idx)
        if entry is not None and entry.block == block:
            del self._entries[idx]
            return entry
        return None

    def drain(self) -> list[WriteCacheEntry]:
        """Remove and return all entries (release-time flush)."""
        entries = list(self._entries.values())
        self._entries.clear()
        return entries

    def __len__(self) -> int:
        return len(self._entries)
