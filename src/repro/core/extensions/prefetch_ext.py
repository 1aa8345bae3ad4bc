"""P: adaptive sequential prefetching as a protocol extension (§3.1).

Requester-side only.  The numeric policy (degree adaptation, the three
modulo-16 counters of Table 1) stays in
:class:`repro.core.prefetch.AdaptivePrefetcher`; this extension is the
protocol glue that was previously hard-wired into the cache
controller:

* a demand miss trains the engine and fans out prefetch requests for
  the K sequential successor blocks (``on_miss_issued``),
* the first reference to a prefetched line counts it useful
  (``on_read_hit``), as does a demand read merging into an in-flight
  prefetch (``on_read_merged``, a "late prefetch hit"),
* prefetches are hints: they are dropped when the SLWB is under
  pressure, never queued.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.core.extensions.base import ProtocolExtension
from repro.core.prefetch import AdaptivePrefetcher

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cache_ctrl import CacheController, _PendingRead
    from repro.mem.slc import CacheLine


class PrefetchExtension(ProtocolExtension):
    """Protocol glue for (adaptive) sequential prefetching."""

    name = "P"

    def __init__(self, protocol: ProtocolConfig) -> None:
        self.params = protocol.prefetch_params
        #: the adaptation engine; built per cache in :meth:`attach_cache`.
        self.engine: AdaptivePrefetcher | None = None

    # -- cache side -----------------------------------------------------

    def attach_cache(self, ctrl: "CacheController") -> None:
        self.engine = AdaptivePrefetcher(self.params)

    def on_read_hit(self, ctrl: "CacheController", line: "CacheLine") -> None:
        if line.prefetched:
            line.prefetched = False
            ctrl.stats.useful_prefetches += 1
            self.engine.on_useful_prefetch()

    def on_read_merged(
        self, ctrl: "CacheController", pending: "_PendingRead"
    ) -> None:
        if pending.is_prefetch and not pending.merged_prefetch:
            pending.merged_prefetch = True
            ctrl.stats.late_prefetch_hits += 1
            self.engine.on_useful_prefetch()

    def on_demand_miss(self, ctrl: "CacheController", block: int) -> None:
        self.engine.on_demand_miss(
            predecessor_cached=ctrl.slc.lookup(block - 1) is not None
        )

    def on_miss_issued(self, ctrl: "CacheController", block: int) -> None:
        engine = self.engine
        if not engine.enabled:
            return
        slwb = ctrl.slwb
        for cand in engine.candidates(block):
            if ctrl.slc.lookup(cand) is not None:
                continue
            if ctrl.has_pending(cand):
                continue
            if len(slwb._entries) >= slwb.capacity:  # Slwb.has_room, inlined
                break  # prefetches are hints: drop under pressure
            ctrl.issue_prefetch(cand)
            engine.on_prefetch_issued()

    # -- reporting ------------------------------------------------------

    def stats_hooks(self) -> dict[str, int]:
        if self.engine is None:
            return {}
        return {
            "degree": self.engine.degree,
            "degree_increases": self.engine.degree_increases,
            "degree_decreases": self.engine.degree_decreases,
        }
