"""Execution-time decomposition and event counters.

The paper decomposes execution time into busy time, read stall, write
stall, acquire stall and release stall (Figures 2 and 3), reports miss
rates as percentages of shared references (Table 2), and network
traffic in bytes normalized to BASIC (Figure 4).

Those are machine-wide sums, so :class:`MachineStats` read back from
the result cache stays columnar.  The cache stores the per-node
counters as one packed block of little-endian int64 values, one
column per counter (:meth:`MachineStats.to_columns`);
:meth:`MachineStats.from_columns` checks the block's length and keeps
its columns in ``array('q')`` pieces, the aggregates sum them, and the
per-node :class:`ProcessorStats`/:class:`CacheStats` records are
built only when something reads ``procs`` or ``caches``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from dataclasses import dataclass, field, fields
from itertools import chain, starmap
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

#: per-node counter name -> its column in the packed block: the
#: ``ProcessorStats`` columns, then the ``CacheStats`` ones.
_COLUMN = {name: i for i, name in enumerate(_PROC_FIELDS + _CACHE_FIELDS)}
_PROC_WIDTH = len(_PROC_FIELDS)
#: bytes per node in the packed block: one int64 per counter.
_NODE_BYTES = len(_COLUMN) * 8
#: the packed block is little-endian; a big-endian host swaps it.
_SWAP = sys.byteorder == "big"
#: most values a column-backed stats keeps in one array: 512 bytes, the
#: largest request CPython's small-object allocator serves.
_PIECE_VALUES = 64

_MISS_COUNTERS = {
    "cold": "cold_misses",
    "replacement": "replacement_misses",
    "coherence": "coherence_misses",
    "total": "demand_read_misses",
}


class MachineStats:
    """All statistics for one simulation run.

    The per-node counters are held in one of two forms.  A simulation
    fills ``ProcessorStats``/``CacheStats`` objects (:meth:`for_nodes`,
    or the constructor).  :meth:`from_columns` keeps the counter
    columns of a packed block instead, whole columns in arrays of at
    most 64 values: the aggregates sum them, and
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
        #: ``(nodes, columns per array, arrays)``, or None once the
        #: per-node objects exist
        self._columns: tuple[int, int, list[array]] | None = None
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
        cols = [self._column(i) for i in range(len(_COLUMN))]
        return zip(*cols[:_PROC_WIDTH]), zip(*cols[_PROC_WIDTH:])

    def _column(self, column: int) -> array:
        """One counter's per-node values, from the column-backed form."""
        n, per, pieces = self._columns
        piece, at = divmod(column, per)
        return pieces[piece][at * n:(at + 1) * n]

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
        column = _COLUMN[name]
        if self._columns is None:
            rows = self._procs if column < _PROC_WIDTH else self._caches
            return sum(map(attrgetter(name), rows))
        return sum(self._column(column))

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
        lossless.  One dict per node: the shape the golden files pin
        and ``==`` compares.
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

    def to_columns(self) -> tuple[dict, bytes]:
        """The result cache's on-disk form: a JSON-able head and one
        packed block of per-node counters.  Inverse of
        :meth:`from_columns`.

        The head holds ``version``, ``layout`` (the counter order,
        :data:`COLUMNS_LAYOUT`), ``nodes``, ``execution_time`` and
        ``network``.  The block is little-endian signed int64: the
        ``ProcessorStats`` columns in field order, then the
        ``CacheStats`` ones, each ``nodes`` values long.  Raises
        :class:`OverflowError` for a counter outside int64 and
        :class:`TypeError` for one that is not an int.
        """
        if self._columns is None:
            procs, caches = self._node_values()
            block = array("q", chain(chain.from_iterable(zip(*procs)),
                                     chain.from_iterable(zip(*caches))))
        else:
            block = array("q", chain.from_iterable(self._columns[2]))
        if _SWAP:
            block.byteswap()
        return {
            "version": STATS_SCHEMA_VERSION,
            "layout": COLUMNS_LAYOUT,
            "nodes": self._nodes(),
            "execution_time": self.execution_time,
            "network": self._network_dict(),
        }, block.tobytes()

    @classmethod
    def from_columns(cls, head: dict, block, nodes: int) -> "MachineStats":
        """Statistics backed by the block of :meth:`to_columns` output.

        ``block`` is any bytes-like object; it is copied.  Raises
        :class:`ValueError` on a version or layout mismatch, a node
        count other than ``nodes``, a block that is not exactly one
        int64 per counter per node, or a head that does not match the
        current counter schema.  Every value in the block is an int by
        construction, so nothing else needs checking.
        """
        cls._check_version(head)
        try:
            n = head["nodes"]
            if type(n) is not int or n != nodes:
                raise ValueError(
                    f"MachineStats payload for {n!r} nodes, not {nodes}"
                )
            if head["layout"] != COLUMNS_LAYOUT:
                raise ValueError(
                    f"MachineStats column layout {head['layout']!r} != "
                    f"{COLUMNS_LAYOUT}"
                )
            if len(block) != n * _NODE_BYTES:
                raise ValueError(
                    f"counter block of {len(block)} bytes, not "
                    f"{n * _NODE_BYTES}"
                )
            counters = array("q")
            counters.frombytes(block)
            network = NetworkStats(**head["network"])
            execution_time = head["execution_time"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed MachineStats payload: {exc}") from exc
        if _SWAP:
            counters.byteswap()
        # Whole columns in arrays of at most _PIECE_VALUES values, not
        # one array of the block: CPython's small-object allocator then
        # holds them, and the memory they free when the records are
        # built is reused for the records.  A block-sized array comes
        # from the C heap instead, where the records cannot reuse it: a
        # process that reads a scale-0.05 report 8 times and then builds
        # every cell's records peaks about 10 % higher that way.
        per = max(1, _PIECE_VALUES // max(n, 1))
        # ``_procs`` and ``_caches`` stay unset until ``_materialize``
        # fills them: nothing reads them while columns back the stats
        stats = cls.__new__(cls)
        stats._columns = (n, per, [counters[c * n:(c + per) * n]
                                   for c in range(0, len(_COLUMN), per)])
        stats.network = network
        stats.execution_time = execution_time
        return stats
