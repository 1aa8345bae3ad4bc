"""Adaptive sequential prefetching (paper §3.1, ref [3]).

On an SLC read miss to block *b*, the *K* consecutive blocks b+1..b+K
are looked up in the cache and a non-binding prefetch is issued for
each absent, non-pending one.  *K* (the degree of prefetching) adapts
to the measured usefulness of past prefetches:

* a **prefetch counter** counts issued prefetches modulo 16,
* a **useful counter** counts prefetched blocks later referenced by the
  processor (each counted once, via the per-line prefetched bit),
* every 16 issued prefetches the useful fraction is compared with the
  high/low marks: above the high mark K doubles (up to a maximum),
  below the low mark K halves (possibly down to zero, turning
  prefetching off),
* a third counter measures sequentiality while K == 0 -- misses to
  block *b* whose predecessor b-1 is cached would have been prefetch
  hits; enough of them turn prefetching back on.

This is the "three modulo-16 counters per cache and two extra bits per
cache line" budget of Table 1.
"""

from __future__ import annotations

from repro.config import PrefetchConfig


class AdaptivePrefetcher:
    """Per-cache adaptive sequential prefetch engine."""

    def __init__(self, cfg: PrefetchConfig) -> None:
        self._cfg = cfg
        self.degree = cfg.initial_degree
        self._issued_in_window = 0   # prefetch counter (mod window)
        self._useful_in_window = 0   # useful counter
        self._seq_in_window = 0      # re-enable counter (used when K == 0)
        self._misses_in_window = 0
        self.degree_increases = 0
        self.degree_decreases = 0

    @property
    def enabled(self) -> bool:
        """False when adaptation turned prefetching off (K == 0)."""
        return self.degree > 0

    def candidates(self, block: int) -> list[int]:
        """Blocks to consider prefetching after a demand miss on ``block``."""
        return [block + i for i in range(1, self.degree + 1)]

    def on_prefetch_issued(self) -> None:
        """A prefetch request left for the memory system."""
        self._issued_in_window += 1
        if self._issued_in_window >= self._cfg.window:
            self._adapt()

    def on_useful_prefetch(self) -> None:
        """A prefetched block was referenced for the first time."""
        if self._useful_in_window < self._cfg.window:
            self._useful_in_window += 1

    def on_demand_miss(self, predecessor_cached: bool) -> None:
        """Track sequentiality so K can be turned back on from zero."""
        if self.degree > 0:
            return
        self._misses_in_window += 1
        if predecessor_cached:
            self._seq_in_window += 1
        if self._misses_in_window >= self._cfg.window:
            fraction = self._seq_in_window / self._cfg.window
            if fraction >= self._cfg.high_mark:
                self.degree = 1
                self.degree_increases += 1
            self._misses_in_window = 0
            self._seq_in_window = 0

    def _adapt(self) -> None:
        fraction = self._useful_in_window / self._cfg.window
        if fraction >= self._cfg.high_mark:
            new_degree = min(max(self.degree * 2, 1), self._cfg.max_degree)
            if new_degree > self.degree:
                self.degree_increases += 1
            self.degree = new_degree
        elif fraction <= self._cfg.low_mark:
            new_degree = self.degree // 2
            if new_degree < self.degree:
                self.degree_decreases += 1
            self.degree = new_degree
        self._issued_in_window = 0
        self._useful_in_window = 0
