"""High-level convenience API.

One-call helpers for the common questions a user of the library asks:

>>> from repro import api
>>> ranking = api.compare_protocols("mp3d")
>>> ranking.best().protocol
'P+CW'
>>> ranking.speedups()["P+CW"]          # execution time / baseline
0.55
>>> summary = api.run_app("mp3d", protocol="P+CW")
>>> summary.speedup_over(ranking["BASIC"])
1.8

Everything here is a thin, typed wrapper over the sweep engine
(:mod:`repro.sweep`), which in turn drives
:class:`~repro.system.System` + :mod:`repro.workloads`; use those
directly for anything the helpers do not expose.  Pass an explicit
:class:`~repro.sweep.SweepEngine` to fan comparisons out across
processes or to reuse cached results.

Serialization goes through **one** path end to end: a cell is
described by a :class:`~repro.sweep.RunSpec` (versioned wire form via
``to_wire``/``to_json``), and a completed cell is digested by
:class:`RunSummary` -- every summary, whatever produced it, is built
by the same constructor from the same ``MachineStats``, and
:meth:`RunSummary.to_dict` is its only JSON shape.  The CLI tables
render from that dict instead of keeping a private format, so a
number shown anywhere is the same number stored in the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import (
    ALL_PROTOCOLS,
    CacheConfig,
    Consistency,
    NetworkConfig,
    ProtocolConfig,
    SystemConfig,
)
from repro.stats.counters import MachineStats
from repro.sweep import (
    DEFAULT_SEED,
    HOT_ENTRIES,
    ResultCache,
    RunResult,
    RunSpec,
    SweepEngine,
)


def make_engine(jobs: int = 1, cache_dir: str | None = None) -> SweepEngine:
    """A sweep engine in the drivers' configuration.

    ``jobs > 1`` fans out across the process-wide persistent warm
    worker pool.  ``cache_dir`` enables on-disk memoization with an
    in-memory hot tier of :data:`~repro.sweep.HOT_ENTRIES` deserialized
    results in front of it.  Pass the result to :func:`run_app` /
    :func:`compare_protocols`.
    """
    cache = None
    if cache_dir is not None:
        cache = ResultCache(cache_dir, hot_entries=HOT_ENTRIES)
    return SweepEngine(
        max_workers=jobs,
        cache=cache,
    )


@dataclass(frozen=True)
class RunSummary:
    """Digest of one simulation: a ratio-level view of a RunResult."""

    app: str
    protocol: str
    consistency: str
    execution_time: int
    busy_fraction: float
    read_stall_fraction: float
    write_stall_fraction: float
    acquire_stall_fraction: float
    release_stall_fraction: float
    cold_miss_rate: float
    coherence_miss_rate: float
    replacement_miss_rate: float
    network_bytes: int
    stats: MachineStats
    #: the spec that produced this summary (None for summaries built
    #: from raw stats without one).
    spec: RunSpec | None = None

    @classmethod
    def build(
        cls,
        app: str,
        protocol: str,
        consistency: str,
        stats: MachineStats,
        spec: RunSpec | None = None,
    ) -> "RunSummary":
        """The one construction path every summary goes through."""
        et = stats.execution_time or 1
        return cls(
            app=app,
            protocol=protocol,
            consistency=consistency,
            execution_time=stats.execution_time,
            busy_fraction=stats.mean_busy / et,
            read_stall_fraction=stats.mean_read_stall / et,
            write_stall_fraction=stats.mean_write_stall / et,
            acquire_stall_fraction=stats.mean_acquire_stall / et,
            release_stall_fraction=stats.mean_release_stall / et,
            cold_miss_rate=stats.miss_rate("cold"),
            coherence_miss_rate=stats.miss_rate("coherence"),
            replacement_miss_rate=stats.miss_rate("replacement"),
            network_bytes=stats.network.bytes,
            stats=stats,
            spec=spec,
        )

    @classmethod
    def from_result(cls, result: RunResult) -> "RunSummary":
        """The summary view of a sweep-engine result."""
        return cls.build(
            app=result.app,
            protocol=result.protocol,
            consistency=result.consistency,
            stats=result.stats,
            spec=result.spec,
        )

    @classmethod
    def from_stats(cls, app: str, cfg: SystemConfig,
                   stats: MachineStats) -> "RunSummary":
        """Build a summary from raw machine statistics."""
        return cls.build(
            app=app,
            protocol=cfg.protocol.name,
            consistency=cfg.consistency.value,
            stats=stats,
        )

    def to_dict(self) -> dict:
        """JSON-able digest; the report form of this summary."""
        return {
            "app": self.app,
            "protocol": self.protocol,
            "consistency": self.consistency,
            "execution_time": self.execution_time,
            "busy_fraction": self.busy_fraction,
            "read_stall_fraction": self.read_stall_fraction,
            "write_stall_fraction": self.write_stall_fraction,
            "acquire_stall_fraction": self.acquire_stall_fraction,
            "release_stall_fraction": self.release_stall_fraction,
            "cold_miss_rate": self.cold_miss_rate,
            "coherence_miss_rate": self.coherence_miss_rate,
            "replacement_miss_rate": self.replacement_miss_rate,
            "network_bytes": self.network_bytes,
            "spec": self.spec.to_wire() if self.spec is not None else None,
        }

    def speedup_over(self, baseline: "RunSummary") -> float:
        """How many times faster this run is than ``baseline``.

        > 1.0 means this configuration beats the baseline.
        """
        if not self.execution_time:
            raise ValueError("summary has zero execution time")
        return baseline.execution_time / self.execution_time


def _spec(
    app: str,
    protocol: str,
    consistency: Consistency,
    scale: float,
    n_procs: int,
    network: NetworkConfig | None,
    cache: CacheConfig | None,
    seed: int,
) -> RunSpec:
    return RunSpec.for_run(
        app,
        protocol=protocol,
        consistency=consistency,
        network=network,
        cache=cache,
        n_procs=n_procs,
        scale=scale,
        seed=seed,
    )


def run_app(
    app: str,
    protocol: str = "BASIC",
    consistency: Consistency = Consistency.RC,
    scale: float = 1.0,
    n_procs: int = 16,
    network: NetworkConfig | None = None,
    cache: CacheConfig | None = None,
    seed: int = DEFAULT_SEED,
    engine: SweepEngine | None = None,
) -> RunSummary:
    """Simulate one application on one machine; returns a digest."""
    spec = _spec(app, protocol, consistency, scale, n_procs, network,
                 cache, seed)
    engine = engine or SweepEngine()
    return RunSummary.from_result(engine.run_one(spec))


@dataclass(frozen=True)
class Ranking:
    """Protocols ranked by execution time on one application."""

    app: str
    summaries: tuple[RunSummary, ...]
    #: protocol every relative number is normalized against.
    baseline: str = "BASIC"

    def best(self) -> RunSummary:
        """The fastest protocol's summary (first also wins ties)."""
        return self.summaries[0]

    def baseline_summary(self) -> RunSummary:
        """The baseline protocol's summary."""
        return self[self.baseline]

    def relative_time(self, protocol: str) -> float:
        """Execution time of ``protocol`` relative to the baseline."""
        base = self.baseline_summary().execution_time
        return self[protocol].execution_time / base

    def speedups(self) -> dict[str, float]:
        """``{protocol: execution_time / baseline_time}`` for all rows."""
        base = self.baseline_summary().execution_time
        return {s.protocol: s.execution_time / base for s in self.summaries}

    def __getitem__(self, protocol: str) -> RunSummary:
        for summary in self.summaries:
            if summary.protocol == protocol:
                return summary
        raise KeyError(protocol)

    def __iter__(self):
        return iter(self.summaries)


def compare_protocols(
    app: str,
    protocols: Sequence[str] = ALL_PROTOCOLS,
    consistency: Consistency = Consistency.RC,
    scale: float = 1.0,
    n_procs: int = 16,
    network: NetworkConfig | None = None,
    cache: CacheConfig | None = None,
    seed: int = DEFAULT_SEED,
    baseline: str = "BASIC",
    engine: SweepEngine | None = None,
) -> Ranking:
    """Run several protocols on one application and rank them.

    The baseline protocol is always included in the comparison; all
    cells go through the sweep engine in one batch, so an engine with a
    process executor parallelizes the comparison and one with a cache
    memoizes it.
    """
    baseline = ProtocolConfig.from_name(baseline).name
    if baseline not in protocols:
        protocols = (baseline, *protocols)
    specs = [
        _spec(app, p, consistency, scale, n_procs, network, cache, seed)
        for p in protocols
    ]
    engine = engine or SweepEngine()
    summaries = [RunSummary.from_result(r) for r in engine.run(specs)]
    summaries.sort(key=lambda s: s.execution_time)
    return Ranking(app=app, summaries=tuple(summaries), baseline=baseline)
