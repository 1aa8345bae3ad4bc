"""Execution-time decomposition and event counters.

The paper decomposes execution time into busy time, read stall, write
stall, acquire stall and release stall (Figures 2 and 3), reports miss
rates as percentages of shared references (Table 2), and network
traffic in bytes normalized to BASIC (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import starmap
from operator import attrgetter, itemgetter

#: version of the ``MachineStats.to_dict`` and ``to_columns`` payloads.
#: Bump whenever a counter is added, removed or changes meaning:
#: deserialization refuses older payloads, which invalidates stale
#: cache entries.
STATS_SCHEMA_VERSION = 1


@dataclass(slots=True)
class ProcessorStats:
    """Per-processor time decomposition and reference counts."""

    busy: int = 0
    read_stall: int = 0
    write_stall: int = 0
    acquire_stall: int = 0
    release_stall: int = 0
    shared_reads: int = 0
    shared_writes: int = 0
    acquires: int = 0
    releases: int = 0
    barriers: int = 0
    finish_time: int = 0

    @property
    def shared_refs(self) -> int:
        """Shared data references (reads + writes)."""
        return self.shared_reads + self.shared_writes

    @property
    def total_time(self) -> int:
        """Sum of all accounted time buckets."""
        return (
            self.busy
            + self.read_stall
            + self.write_stall
            + self.acquire_stall
            + self.release_stall
        )


@dataclass(slots=True)
class CacheStats:
    """Per-node cache and protocol event counters."""

    demand_read_misses: int = 0
    cold_misses: int = 0
    replacement_misses: int = 0
    coherence_misses: int = 0
    #: demand reads that merged with an in-flight (prefetch) request.
    late_prefetch_hits: int = 0
    #: demand reads satisfied by store-to-load forwarding from the FLWB.
    flwb_forwards: int = 0
    prefetches_issued: int = 0
    useful_prefetches: int = 0
    ownership_requests: int = 0
    invalidations_received: int = 0
    updates_received: int = 0
    updates_dropped: int = 0
    write_cache_flushes: int = 0
    writebacks: int = 0
    read_miss_latency_total: int = 0
    read_miss_latency_count: int = 0

    @property
    def avg_read_miss_latency(self) -> float:
        """Mean demand-read-miss service time in pclocks."""
        if not self.read_miss_latency_count:
            return 0.0
        return self.read_miss_latency_total / self.read_miss_latency_count


@dataclass(slots=True)
class NetworkStats:
    """Global interconnect traffic counters."""

    messages: int = 0
    bytes: int = 0
    data_messages: int = 0
    by_type: dict[str, int] = field(default_factory=dict)
    #: peak per-link utilization over the run (0.0 on contention-free
    #: networks); recorded by ``System.run`` so results that have shed
    #: their ``System`` (sweep cache, worker processes) still carry the
    #: §5.3 saturation indicator.
    peak_link_utilization: float = 0.0


def _fields_of(cls) -> tuple[tuple[str, ...], attrgetter]:
    """A stats class's field names (declaration order, which is also
    its positional ``__init__`` order) and one getter of all of them."""
    names = tuple(f.name for f in fields(cls))
    return names, attrgetter(*names)


_PROC_FIELDS, _proc_values = _fields_of(ProcessorStats)
_CACHE_FIELDS, _cache_values = _fields_of(CacheStats)
_NET_FIELDS, _net_values = _fields_of(NetworkStats)


#: per class, for :func:`_rows`: the field-name set and one getter of
#: every column in ``__init__`` order, built once rather than per payload
_PROC_NAMES, _proc_columns = frozenset(_PROC_FIELDS), itemgetter(*_PROC_FIELDS)
_CACHE_NAMES, _cache_columns = (frozenset(_CACHE_FIELDS),
                                itemgetter(*_CACHE_FIELDS))


def _columns(names: tuple[str, ...], getter: attrgetter, rows: list) -> dict:
    """One list per field across ``rows``."""
    if not rows:
        return {name: [] for name in names}
    return dict(zip(names, map(list, zip(*map(getter, rows)))))


def _rows(cls, names: frozenset[str], columns_of: itemgetter, columns) -> list:
    """Inverse of :func:`_columns`; ``ValueError`` unless ``columns``
    holds exactly the fields of ``cls`` (``names``), all of one length."""
    if not isinstance(columns, dict):
        raise ValueError(
            f"{cls.__name__} columns must be an object, "
            f"got {type(columns).__name__}"
        )
    if columns.keys() != names:
        raise ValueError(
            f"{cls.__name__} columns {sorted(columns)} != {sorted(names)}"
        )
    return list(starmap(cls, zip(*columns_of(columns), strict=True)))


@dataclass(slots=True)
class MachineStats:
    """All statistics for one simulation run."""

    procs: list[ProcessorStats]
    caches: list[CacheStats]
    network: NetworkStats = field(default_factory=NetworkStats)
    execution_time: int = 0

    @classmethod
    def for_nodes(cls, n: int) -> "MachineStats":
        """Fresh statistics for an ``n``-node machine."""
        return cls(
            procs=[ProcessorStats() for _ in range(n)],
            caches=[CacheStats() for _ in range(n)],
        )

    # -- aggregates used by the experiment drivers ---------------------

    def _mean(self, attr: str) -> float:
        return sum(map(attrgetter(attr), self.procs)) / len(self.procs)

    @property
    def mean_busy(self) -> float:
        """Average per-processor busy time."""
        return self._mean("busy")

    @property
    def mean_read_stall(self) -> float:
        """Average per-processor read-stall time."""
        return self._mean("read_stall")

    @property
    def mean_write_stall(self) -> float:
        """Average per-processor write-stall time."""
        return self._mean("write_stall")

    @property
    def mean_acquire_stall(self) -> float:
        """Average per-processor acquire-stall time (incl. barriers)."""
        return self._mean("acquire_stall")

    @property
    def mean_release_stall(self) -> float:
        """Average per-processor release-stall time."""
        return self._mean("release_stall")

    @property
    def total_shared_refs(self) -> int:
        """Machine-wide shared data references."""
        return sum(p.shared_refs for p in self.procs)

    def miss_rate(self, component: str) -> float:
        """Machine-wide miss-rate component in percent of shared refs.

        ``component`` is one of ``cold``, ``replacement``, ``coherence``
        or ``total``.
        """
        refs = self.total_shared_refs
        if not refs:
            return 0.0
        key = {
            "cold": "cold_misses",
            "replacement": "replacement_misses",
            "coherence": "coherence_misses",
            "total": "demand_read_misses",
        }[component]
        return 100.0 * sum(map(attrgetter(key), self.caches)) / refs

    # -- serialization (sweep cache, worker processes) -----------------

    def _network_dict(self) -> dict:
        d = dict(zip(_NET_FIELDS, _net_values(self.network)))
        d["by_type"] = dict(d["by_type"])
        return d

    def to_dict(self) -> dict:
        """Versioned JSON-able payload; inverse of :meth:`from_dict`.

        Every counter is a plain int/float/str, so the round trip is
        lossless.  One dict per node: the shape of the worker-pool
        replies.
        """
        return {
            "version": STATS_SCHEMA_VERSION,
            "execution_time": self.execution_time,
            "procs": [dict(zip(_PROC_FIELDS, _proc_values(p)))
                      for p in self.procs],
            "caches": [dict(zip(_CACHE_FIELDS, _cache_values(c)))
                       for c in self.caches],
            "network": self._network_dict(),
        }

    @staticmethod
    def _check_version(d) -> None:
        version = d.get("version") if isinstance(d, dict) else None
        if version != STATS_SCHEMA_VERSION:
            raise ValueError(
                f"MachineStats payload version {version!r} != "
                f"{STATS_SCHEMA_VERSION}"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "MachineStats":
        """Rebuild statistics from :meth:`to_dict` output.

        Raises :class:`ValueError` on a version mismatch or a payload
        whose fields do not match the current counter schema.
        """
        cls._check_version(d)
        try:
            return cls(
                procs=[ProcessorStats(**p) for p in d["procs"]],
                caches=[CacheStats(**c) for c in d["caches"]],
                network=NetworkStats(**d["network"]),
                execution_time=d["execution_time"],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed MachineStats payload: {exc}") from exc

    def to_columns(self) -> dict:
        """Columnar payload: one list per counter across the nodes.

        The result cache's on-disk form: the same counters as
        :meth:`to_dict`, but each counter name is written once instead
        of once per node.  Inverse of :meth:`from_columns`.
        """
        return {
            "version": STATS_SCHEMA_VERSION,
            "execution_time": self.execution_time,
            "procs": _columns(_PROC_FIELDS, _proc_values, self.procs),
            "caches": _columns(_CACHE_FIELDS, _cache_values, self.caches),
            "network": self._network_dict(),
        }

    @classmethod
    def from_columns(cls, d: dict) -> "MachineStats":
        """Rebuild statistics from :meth:`to_columns` output.

        Raises :class:`ValueError` on a version mismatch, a missing or
        extra column, columns of unequal length, or any other payload
        that does not match the current counter schema.
        """
        cls._check_version(d)
        try:
            return cls(
                procs=_rows(ProcessorStats, _PROC_NAMES, _proc_columns,
                            d["procs"]),
                caches=_rows(CacheStats, _CACHE_NAMES, _cache_columns,
                             d["caches"]),
                network=NetworkStats(**d["network"]),
                execution_time=d["execution_time"],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed MachineStats payload: {exc}") from exc
