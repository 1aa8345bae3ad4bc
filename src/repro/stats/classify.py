"""Cold / replacement / coherence miss classification.

The classic per-cache rule the paper's methodology (ref [3]) relies on:

* **cold** -- the cache has never held the block,
* **coherence** -- the copy was removed by a coherence action
  (invalidation, fetch-away, competitive-update self-invalidation),
* **replacement** -- the copy was victimized by a conflict/capacity
  eviction.
"""

from __future__ import annotations


class MissClassifier:
    """Tracks why each block is absent from one cache."""

    COLD = "cold"
    REPLACEMENT = "replacement"
    COHERENCE = "coherence"

    def __init__(self) -> None:
        self._ever_cached: set[int] = set()
        self._lost_to_coherence: set[int] = set()
        self._lost_to_eviction: set[int] = set()

    def on_fill(self, block: int) -> None:
        """The cache gained a copy of ``block``."""
        self._ever_cached.add(block)
        self._lost_to_coherence.discard(block)
        self._lost_to_eviction.discard(block)

    def on_coherence_loss(self, block: int) -> None:
        """The copy was invalidated / fetched away / update-dropped."""
        self._lost_to_coherence.add(block)
        self._lost_to_eviction.discard(block)

    def on_eviction(self, block: int) -> None:
        """The copy was victimized by a replacement."""
        self._lost_to_eviction.add(block)
        self._lost_to_coherence.discard(block)

    def classify(self, block: int) -> str:
        """Why a miss to ``block`` occurred (call before :meth:`on_fill`)."""
        if block not in self._ever_cached:
            return self.COLD
        if block in self._lost_to_coherence:
            return self.COHERENCE
        return self.REPLACEMENT
