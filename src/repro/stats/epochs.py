"""Epoch (time-series) statistics.

Samples the machine-wide cumulative counters at a fixed interval while
a simulation runs, yielding per-epoch miss-rate series.  This is the
instrument behind the paper's §3.1 observation that "the cold miss
rate does not necessarily decline with time ... true in general for
direct (i.e., non-iterative) solution methods", exemplified by LU and
Cholesky -- versus iterative applications like Ocean whose cold misses
vanish after the first sweep.

>>> system = System(cfg)
>>> sampler = EpochSampler.attach(system, interval=5_000)
>>> system.run(streams)
>>> for epoch in sampler.epochs():
...     print(epoch.end_time, epoch.cold_miss_rate)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.system import System


@dataclass(frozen=True)
class Snapshot:
    """Cumulative machine counters at one instant."""

    time: int
    shared_refs: int
    cold: int
    replacement: int
    coherence: int


@dataclass(frozen=True)
class Epoch:
    """Differences between two consecutive snapshots."""

    start_time: int
    end_time: int
    shared_refs: int
    cold: int
    replacement: int
    coherence: int

    def _rate(self, count: int) -> float:
        return 100.0 * count / self.shared_refs if self.shared_refs else 0.0

    @property
    def cold_miss_rate(self) -> float:
        """Cold misses as % of the epoch's shared references."""
        return self._rate(self.cold)

    @property
    def coherence_miss_rate(self) -> float:
        """Coherence misses as % of the epoch's shared references."""
        return self._rate(self.coherence)

    @property
    def replacement_miss_rate(self) -> float:
        """Replacement misses as % of the epoch's shared references."""
        return self._rate(self.replacement)


class EpochSampler:
    """Periodic sampler of a running system's counters."""

    def __init__(self, system: System, interval: int) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._system = system
        self._interval = interval
        self._snapshots: list[Snapshot] = [self._snap()]

    @classmethod
    def attach(cls, system: System, interval: int = 10_000) -> "EpochSampler":
        """Create a sampler and schedule it on ``system``'s clock."""
        sampler = cls(system, interval)
        system.sim.after(interval, sampler._tick)
        return sampler

    def _snap(self) -> Snapshot:
        stats = self._system.stats
        return Snapshot(
            time=self._system.sim.now,
            shared_refs=sum(p.shared_refs for p in stats.procs),
            cold=sum(c.cold_misses for c in stats.caches),
            replacement=sum(c.replacement_misses for c in stats.caches),
            coherence=sum(c.coherence_misses for c in stats.caches),
        )

    def _tick(self) -> None:
        self._snapshots.append(self._snap())
        if self._system._finished < self._system.cfg.n_procs:
            self._system.sim.after(self._interval, self._tick)

    @property
    def snapshots(self) -> list[Snapshot]:
        """All samples taken so far (first one at t=0)."""
        return list(self._snapshots)

    def epochs(self) -> list[Epoch]:
        """Per-interval differences, skipping empty trailing epochs."""
        out = []
        for a, b in zip(self._snapshots, self._snapshots[1:]):
            epoch = Epoch(
                start_time=a.time,
                end_time=b.time,
                shared_refs=b.shared_refs - a.shared_refs,
                cold=b.cold - a.cold,
                replacement=b.replacement - a.replacement,
                coherence=b.coherence - a.coherence,
            )
            out.append(epoch)
        while out and out[-1].shared_refs == 0:
            out.pop()
        return out


def sparkline(values: list[float], width: int = 60) -> str:
    """A coarse ASCII sparkline (resampled to ``width`` buckets)."""
    if not values:
        return ""
    glyphs = " .:-=+*#%@"
    top = max(values) or 1.0
    if len(values) > width:
        bucket = len(values) / width
        values = [
            values[int(i * bucket)] for i in range(width)
        ]
    return "".join(
        glyphs[min(len(glyphs) - 1, int(v / top * (len(glyphs) - 1)))]
        for v in values
    )
