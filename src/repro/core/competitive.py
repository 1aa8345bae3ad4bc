"""Competitive-update policy (paper §3.3, refs [4, 10]).

The counter discipline of the competitive-update mechanism, factored
out of the cache controller:

* on every *local access* (and on load) the per-line counter is preset
  to the competitive threshold,
* an incoming update decrements the counter **only if no local access
  intervened since the previous update** -- "if a number of global
  updates equal to the competitive threshold reach the cache with no
  intervening local access, the block is invalidated locally";
  actively used copies therefore survive indefinitely,
* at zero the copy self-invalidates and the home stops sending it
  updates.

The module also decides home-side exclusivity: a flusher that is the
sole remaining sharer of a migratory block (CW+M) takes ownership, so
that update propagation stops (§3.4); every other flush leaves the
block shared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import CompetitiveConfig

if TYPE_CHECKING:
    from repro.core.directory import DirectoryEntry
    from repro.mem.slc import CacheLine


class CompetitivePolicy:
    """Per-cache competitive-counter discipline."""

    def __init__(self, cfg: CompetitiveConfig) -> None:
        self.threshold = cfg.threshold

    def on_fill(self, line: CacheLine) -> None:
        """A copy was just loaded: full tolerance."""
        line.comp_count = self.threshold
        line.accessed_since_update = True

    def on_local_access(self, line: CacheLine, modifying: bool = False) -> None:
        """The processor touched the block: reset the tolerance."""
        line.comp_count = self.threshold
        line.accessed_since_update = True
        if modifying:
            line.modified_since_update = True

    def on_update(self, line: CacheLine) -> bool:
        """An update arrived from the home; returns True to self-invalidate."""
        if line.accessed_since_update:
            line.comp_count = self.threshold
        else:
            line.comp_count -= 1
        line.accessed_since_update = False
        line.modified_since_update = False
        return line.comp_count <= 0


def grants_exclusivity_on_flush(entry: DirectoryEntry, flusher: int) -> bool:
    """Home-side rule: may the flusher take the block exclusively?

    Only a migratory block (CW+M) migrates, and only to a flusher that
    actually holds a copy.
    """
    return entry.migratory and flusher in entry.sharers
