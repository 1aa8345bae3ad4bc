"""Execution-time decomposition and event counters.

The paper decomposes execution time into busy time, read stall, write
stall, acquire stall and release stall (Figures 2 and 3), reports miss
rates as percentages of shared references (Table 2), and network
traffic in bytes normalized to BASIC (Figure 4).

Those are machine-wide sums, so :class:`MachineStats` read back from
the result cache stays columnar: :meth:`MachineStats.from_columns`
keeps the validated columns, the aggregates sum them, and the
per-node :class:`ProcessorStats`/:class:`CacheStats` records are
built only when something reads ``procs`` or ``caches``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from itertools import repeat, starmap
from operator import attrgetter

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

#: digest of the per-node counter names in column order.  A columnar
#: payload stores its columns by position, so one written under another
#: field order (a counter added, removed or moved) must not be read.
COLUMNS_LAYOUT = hashlib.sha256(
    json.dumps([_PROC_FIELDS, _CACHE_FIELDS]).encode()
).hexdigest()[:12]

#: per-node counter name -> (column group, position): group 0 is
#: ``procs``, group 1 ``caches``.
_COUNTERS = {
    **{name: (0, i) for i, name in enumerate(_PROC_FIELDS)},
    **{name: (1, i) for i, name in enumerate(_CACHE_FIELDS)},
}

_MISS_COUNTERS = {
    "cold": "cold_misses",
    "replacement": "replacement_misses",
    "coherence": "coherence_misses",
    "total": "demand_read_misses",
}


def _packed(rows, width: int) -> list:
    """One column per counter across ``rows`` (value tuples, one per
    node), each a list, or one int where every node has that int."""
    columns: list[tuple] = list(zip(*rows)) or [()] * width
    return [
        col[0] if col and type(col[0]) is int and col.count(col[0]) == len(col)
        else list(col)
        for col in columns
    ]


def _checked(group: str, columns, width: int, nodes: int) -> list:
    """``columns`` if it is ``width`` columns, each an int or a list of
    ``nodes`` values; ``ValueError`` otherwise."""
    if type(columns) is not list or len(columns) != width:
        raise ValueError(f"{group} must be a list of {width} columns")
    for col in columns:
        if type(col) is list:
            if len(col) != nodes:
                raise ValueError(
                    f"{group} column of {len(col)} values, not {nodes}"
                )
        elif type(col) is not int:
            raise ValueError(
                f"{group} column is a {type(col).__name__}, not an int "
                "or a list"
            )
    return columns


class MachineStats:
    """All statistics for one simulation run.

    The per-node counters are held in one of two forms.  A simulation
    fills ``ProcessorStats``/``CacheStats`` objects (:meth:`for_nodes`,
    or the constructor).  :meth:`from_columns` keeps the validated
    columns instead: the aggregates read them directly, and
    :attr:`procs`/:attr:`caches` are built from them on first access,
    after which the columns are dropped.  Either way the values, and
    ``==``, :meth:`to_dict` and :meth:`to_columns`, are the same.
    """

    __slots__ = ("_procs", "_caches", "_columns", "network", "execution_time")

    def __init__(
        self,
        procs: list[ProcessorStats],
        caches: list[CacheStats],
        network: NetworkStats | None = None,
        execution_time: int = 0,
    ) -> None:
        self._procs = procs
        self._caches = caches
        #: ``(nodes, proc columns, cache columns)``, or None once the
        #: per-node objects exist
        self._columns: tuple[int, list, list] | None = None
        self.network = NetworkStats() if network is None else network
        self.execution_time = execution_time

    @classmethod
    def for_nodes(cls, n: int) -> "MachineStats":
        """Fresh statistics for an ``n``-node machine."""
        return cls(
            procs=[ProcessorStats() for _ in range(n)],
            caches=[CacheStats() for _ in range(n)],
        )

    # -- per-node records ----------------------------------------------

    @property
    def procs(self) -> list[ProcessorStats]:
        """One :class:`ProcessorStats` per node."""
        if self._columns is not None:
            self._materialize()
        return self._procs

    @property
    def caches(self) -> list[CacheStats]:
        """One :class:`CacheStats` per node."""
        if self._columns is not None:
            self._materialize()
        return self._caches

    def _node_values(self) -> tuple:
        """Per group (procs, caches), one value tuple per node, in
        field order, read from whichever form backs the stats."""
        if self._columns is None:
            return map(_proc_values, self._procs), map(_cache_values, self._caches)
        n, *groups = self._columns
        return tuple(
            zip(*[repeat(col, n) if type(col) is int else col for col in cols])
            for cols in groups
        )

    def _nodes(self) -> int:
        return len(self._procs) if self._columns is None else self._columns[0]

    def _materialize(self) -> None:
        procs, caches = self._node_values()
        self._procs = list(starmap(ProcessorStats, procs))
        self._caches = list(starmap(CacheStats, caches))
        self._columns = None

    # -- aggregates used by the experiment drivers ---------------------

    def _sum(self, name: str) -> int:
        """Machine-wide sum of one per-node counter."""
        group, index = _COUNTERS[name]
        if self._columns is None:
            rows = self._procs if group == 0 else self._caches
            return sum(map(attrgetter(name), rows))
        n, procs, caches = self._columns
        col = (procs if group == 0 else caches)[index]
        return col * n if type(col) is int else sum(col)

    def _mean(self, name: str) -> float:
        return self._sum(name) / self._nodes()

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
        return self._sum("shared_reads") + self._sum("shared_writes")

    def miss_rate(self, component: str) -> float:
        """Machine-wide miss-rate component in percent of shared refs.

        ``component`` is one of ``cold``, ``replacement``, ``coherence``
        or ``total``.
        """
        refs = self.total_shared_refs
        if not refs:
            return 0.0
        return 100.0 * self._sum(_MISS_COUNTERS[component]) / refs

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MachineStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None  # type: ignore[assignment]  # mutable, like a dataclass

    def __repr__(self) -> str:
        procs, caches = self._node_values()
        return (
            f"MachineStats(procs={list(starmap(ProcessorStats, procs))!r}, "
            f"caches={list(starmap(CacheStats, caches))!r}, "
            f"network={self.network!r}, "
            f"execution_time={self.execution_time!r})"
        )

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
        procs, caches = self._node_values()
        return {
            "version": STATS_SCHEMA_VERSION,
            "execution_time": self.execution_time,
            "procs": [dict(zip(_PROC_FIELDS, p)) for p in procs],
            "caches": [dict(zip(_CACHE_FIELDS, c)) for c in caches],
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
        """Columnar payload: the result cache's on-disk form.

        ``procs`` and ``caches`` each hold one column per counter, in
        field order, across the ``nodes``; a column whose value is the
        same on every node is that one int.  ``layout`` stamps the
        field order (:data:`COLUMNS_LAYOUT`).  Inverse of
        :meth:`from_columns`.
        """
        procs, caches = self._node_values()
        return {
            "version": STATS_SCHEMA_VERSION,
            "layout": COLUMNS_LAYOUT,
            "nodes": self._nodes(),
            "execution_time": self.execution_time,
            "procs": _packed(procs, len(_PROC_FIELDS)),
            "caches": _packed(caches, len(_CACHE_FIELDS)),
            "network": self._network_dict(),
        }

    @classmethod
    def from_columns(cls, d: dict, nodes: int) -> "MachineStats":
        """Statistics backed by the columns of :meth:`to_columns` output.

        Raises :class:`ValueError` on a version or layout mismatch, a
        node count other than ``nodes``, a missing or extra column, a
        column of the wrong length, a single-value column that is not
        an int, or any other payload that does not match the current
        counter schema.  The payload's column lists are kept, not
        copied.
        """
        cls._check_version(d)
        try:
            n = d["nodes"]
            if type(n) is not int or n != nodes:
                raise ValueError(
                    f"MachineStats payload for {n!r} nodes, not {nodes}"
                )
            if d["layout"] != COLUMNS_LAYOUT:
                raise ValueError(
                    f"MachineStats column layout {d['layout']!r} != "
                    f"{COLUMNS_LAYOUT}"
                )
            columns = (
                n,
                _checked("procs", d["procs"], len(_PROC_FIELDS), n),
                _checked("caches", d["caches"], len(_CACHE_FIELDS), n),
            )
            network = NetworkStats(**d["network"])
            execution_time = d["execution_time"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed MachineStats payload: {exc}") from exc
        # ``_procs`` and ``_caches`` stay unset until ``_materialize``
        # fills them: nothing reads them while columns back the stats
        stats = cls.__new__(cls)
        stats._columns = columns
        stats.network = network
        stats.execution_time = execution_time
        return stats
