"""On-disk result cache: one JSON file per completed simulation cell.

Layout::

    <root>/<key[:2]>/<key>.json

where ``key`` is :meth:`RunSpec.key` -- a sha256 over the canonical
spec JSON plus the spec schema version.  Each file holds::

    {"schema": CACHE_SCHEMA_VERSION,
     "spec_key": "<key>",          # self-check against renamed files
     "spec": {"v": 1, ...},        # RunSpec.to_wire(), versioned
     "stats": {...},               # MachineStats.to_dict() (versioned)
     "wall_time": 1.234}           # simulation seconds when first run

Invalidation rules (each counted in :attr:`ResultCache.invalidated`
and then treated as a miss):

* unreadable / non-JSON file,
* ``schema`` != :data:`CACHE_SCHEMA_VERSION`,
* ``spec_key`` mismatch (file renamed or copied between keys),
* stats payload rejected by ``MachineStats.from_dict`` (its own
  version stamp or counter schema changed).

A spec-schema bump changes every key, so older entries are simply
never looked up again; they can be garbage-collected with ``clear``.
Writes are atomic (tempfile + rename), so a crashed run never leaves a
half-written entry behind.

Bounds
------

A cache constructed with ``max_bytes`` and/or ``max_entries`` evicts
least-recently-used entries (counted in :attr:`ResultCache.evictions`)
whenever a ``put`` pushes it over either limit.  Recency survives
restarts: hits touch the entry's mtime, and a bounded cache rebuilds
its LRU index from mtimes at construction.  An unbounded cache (the
default) keeps the historical zero-overhead behavior -- no index, no
touching.  :meth:`stats` reports sizes and counters either way; the
service exposes it verbatim at ``GET /v1/cache/stats``.

Hot tier
--------

``hot_entries > 0`` adds an in-memory LRU of deserialized results in
front of the JSON files: a repeated ``get`` skips the file read, the
JSON parse and the stats rehydration entirely (hot hits still count as
:attr:`hits`, and additionally as ``hot.hits`` in :meth:`stats`).
Every driver (the experiment CLIs, ``repro compare``/``serve``, the
library helpers and the bench sweep suite) sizes it to
:data:`HOT_ENTRIES`; a bare ``ResultCache`` keeps it off, so it sees
files corrupted behind its back.  Callers that return cached results
must treat the stats payload as read-only -- hot hits share one
deserialized object.  Writes are always write-through: an entry is on
disk when ``put`` returns.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

from repro.stats.counters import MachineStats
from repro.sweep.spec import RunResult, RunSpec

#: version of the cache-file envelope (the fields *around* the stats
#: payload); the stats payload carries its own version.
CACHE_SCHEMA_VERSION = 1

#: default cache location; overridable with $REPRO_CACHE_DIR or the
#: ``--cache-dir`` CLI flag.
DEFAULT_CACHE_DIR = ".repro-cache"

#: hot-tier size every driver builds its cache with.
HOT_ENTRIES = 512


def default_cache_dir() -> Path:
    """The cache root the CLI uses when none is given."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


class ResultCache:
    """Spec-addressed store of completed :class:`RunResult` payloads."""

    def __init__(
        self,
        root: str | Path,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        hot_entries: int = 0,
    ) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValueError(
                f"cache dir {self.root} exists and is not a directory"
            ) from None
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.hot_entries = max(0, hot_entries)
        # one engine (and the HTTP service on top of it) may drive the
        # cache from many threads; counters and the LRU index are
        # guarded by a reentrant lock, file writes are atomic anyway.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.evictions = 0
        #: hot-tier counters (always present; 0 when the tier is off).
        self.hot_hits = 0
        self.hot_misses = 0
        #: hot tier: key -> (RunResult, serialized size in bytes when
        #: known, else 0), LRU order.  None when hot_entries == 0.
        self._hot: OrderedDict[str, tuple[RunResult, int]] | None = (
            OrderedDict() if self.hot_entries else None
        )
        #: LRU index (key -> file size), oldest first; only maintained
        #: when a bound is configured so the unbounded cache stays
        #: index-free and zero-overhead.
        self._index: OrderedDict[str, int] | None = None
        if max_bytes is not None or max_entries is not None:
            self._index = self._build_index()
            self._evict()

    @property
    def bounded(self) -> bool:
        """True when an eviction limit is configured."""
        return self._index is not None

    # -- addressing -----------------------------------------------------

    def path_for_key(self, key: str) -> Path:
        """The file that does/would hold the result hashed to ``key``."""
        return self.root / key[:2] / f"{key}.json"

    def path_for(self, spec: RunSpec) -> Path:
        """The file that does/would hold this spec's result."""
        return self.path_for_key(spec.key())

    # -- read -----------------------------------------------------------

    def get(self, spec: RunSpec) -> RunResult | None:
        """The cached result, or None (counting hit/miss/invalidation)."""
        key = spec.key()
        with self._lock:
            if self._hot is not None:
                entry = self._hot.get(key)
                if entry is not None:
                    result, _ = entry
                    self.hits += 1
                    self.hot_hits += 1
                    self._hot.move_to_end(key)
                    self._touch(key)
                    return replace(result, spec=spec, from_cache=True)
                self.hot_misses += 1
            payload = self._load(key)
            if payload is None:
                return None
            try:
                stats = MachineStats.from_dict(payload["stats"])
                wall_time = float(payload.get("wall_time", 0.0))
            except (KeyError, TypeError, ValueError):
                self._invalidate(key)
                return None
            self.hits += 1
            self._touch(key)
            result = RunResult(
                spec=spec, stats=stats, wall_time=wall_time, from_cache=True
            )
            self._hot_store(key, result, self._disk_size(key))
        return result

    def get_by_key(self, key: str) -> dict | None:
        """The raw cache envelope for a bare content hash, or None.

        This is the ``GET /v1/runs/<hash>`` read path: no spec needed,
        the stored payload (spec wire form included) is returned as-is.
        Counts hits/misses and refreshes recency like :meth:`get`.
        """
        with self._lock:
            payload = self._load(key)
            if payload is None:
                return None
            self.hits += 1
            self._touch(key)
        return payload

    def _load(self, key: str) -> dict | None:
        """Read + envelope-check one entry (miss/invalidate accounting)."""
        path = self.path_for_key(key)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._invalidate(key)
            return None
        try:
            if payload["schema"] != CACHE_SCHEMA_VERSION:
                raise ValueError("cache envelope version mismatch")
            if payload["spec_key"] != key:
                raise ValueError("cache entry does not match its key")
        except (KeyError, TypeError, ValueError):
            self._invalidate(key)
            return None
        return payload

    # -- write ----------------------------------------------------------

    def put(self, result: RunResult) -> None:
        """Store a completed result: atomic file write, then LRU eviction."""
        key = result.spec.key()
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "spec_key": key,
            "spec": result.spec.to_wire(),
            "stats": result.stats.to_dict(),
            "wall_time": result.wall_time,
        }
        with self._lock:
            if self._hot is not None:
                # store the dict round-trip of the stats, not the live
                # object: hot hits then match a disk read bit for bit
                # and never alias stats the caller may still hold.
                self._hot_store(key, RunResult(
                    spec=result.spec,
                    stats=MachineStats.from_dict(payload["stats"]),
                    wall_time=result.wall_time,
                    from_cache=True,
                ), 0)
        self._write(key, payload)

    def _write(self, key: str, payload: dict) -> None:
        """Atomic file write + LRU index/hot-size bookkeeping."""
        path = self.path_for_key(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            size = path.stat().st_size
            if self._hot is not None and key in self._hot:
                self._hot[key] = (self._hot[key][0], size)
            if self._index is not None:
                self._index.pop(key, None)
                self._index[key] = size
                self._evict()

    # -- hot tier -------------------------------------------------------

    def _hot_store(self, key: str, result: RunResult, size: int) -> None:
        """Insert/refresh a hot-tier entry (caller holds the lock)."""
        if self._hot is None:
            return
        prev = self._hot.pop(key, None)
        if size == 0 and prev is not None:
            size = prev[1]
        self._hot[key] = (result, size)
        while len(self._hot) > self.hot_entries:
            self._hot.popitem(last=False)

    def _disk_size(self, key: str) -> int:
        """Size of the entry's file, 0 if unknown (caller holds lock)."""
        if self._index is not None:
            return self._index.get(key, 0)
        try:
            return self.path_for_key(key).stat().st_size
        except OSError:
            return 0

    # -- bounds ---------------------------------------------------------

    def _build_index(self) -> OrderedDict[str, int]:
        """Scan the shards into an mtime-ordered (oldest-first) index."""
        entries = []
        for path in self.root.glob("*/*.json"):
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, path.stem, st.st_size))
        entries.sort()
        return OrderedDict((key, size) for _, key, size in entries)

    def _touch(self, key: str) -> None:
        """Refresh an entry's recency (index order + on-disk mtime)."""
        if self._index is None:
            return
        if key in self._index:
            self._index.move_to_end(key)
        try:
            os.utime(self.path_for_key(key))
        except OSError:
            pass

    def _evict(self) -> None:
        """Drop LRU entries until both configured bounds hold."""
        if self._index is None:
            return
        while self._index and self._over_limit():
            key, _ = self._index.popitem(last=False)
            self.evictions += 1
            try:
                os.unlink(self.path_for_key(key))
            except OSError:
                pass

    def _over_limit(self) -> bool:
        if self.max_entries is not None and len(self._index) > self.max_entries:
            return True
        if self.max_bytes is not None \
                and sum(self._index.values()) > self.max_bytes:
            return True
        return False

    # -- maintenance / introspection ------------------------------------

    def _invalidate(self, key: str) -> None:
        """Drop a stale/corrupt entry; counts as invalidated + miss."""
        with self._lock:
            self.invalidated += 1
            self.misses += 1
            if self._index is not None:
                self._index.pop(key, None)
            if self._hot is not None:
                self._hot.pop(key, None)
        try:
            os.unlink(self.path_for_key(key))
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every entry under the root; returns the count."""
        with self._lock:
            n = 0
            for path in self.root.glob("*/*.json"):
                try:
                    os.unlink(path)
                    n += 1
                except OSError:
                    pass
            if self._index is not None:
                self._index.clear()
            if self._hot is not None:
                self._hot.clear()
            return n

    def total_bytes(self) -> int:
        """Bytes currently stored (index sum, or a scan if unbounded)."""
        with self._lock:
            if self._index is not None:
                return sum(self._index.values())
        total = 0
        for path in self.root.glob("*/*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def stats(self) -> dict:
        """JSON-able counter/size digest (served at /v1/cache/stats)."""
        with self._lock:
            return {
                "entries": len(self),
                "bytes": self.total_bytes(),
                "hits": self.hits,
                "misses": self.misses,
                "invalidated": self.invalidated,
                "evictions": self.evictions,
                "max_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "hot": {
                    "entries": (len(self._hot)
                                if self._hot is not None else 0),
                    "max_entries": self.hot_entries,
                    "bytes": (sum(size for _, size in self._hot.values())
                              if self._hot is not None else 0),
                    "hits": self.hot_hits,
                    "misses": self.hot_misses,
                },
            }

    def __len__(self) -> int:
        if self._index is not None:
            return len(self._index)
        return sum(1 for _ in self.root.glob("*/*.json"))
