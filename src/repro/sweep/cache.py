"""On-disk result cache: one JSON file per completed simulation cell.

Layout::

    <root>/<key[:2]>/<key>.json

where ``key`` is :meth:`RunSpec.key` -- a sha256 over the canonical
spec JSON plus the spec schema version.  Each file holds::

    {"schema": CACHE_SCHEMA_VERSION,
     "spec_key": "<key>",          # self-check against renamed files
     "spec": {"v": ..., ...},      # RunSpec.to_wire(), versioned
     "stats": {...},               # MachineStats.to_columns() (versioned)
     "wall_time": 1.234}           # simulation seconds when first run

``stats`` is columnar: ``procs`` and ``caches`` are lists of columns
in the counter classes' field order, one value per node, and a column
whose value is the same on every node is stored as that one int.
``nodes`` gives the node count and ``layout`` a digest of the field
order (:data:`~repro.stats.counters.COLUMNS_LAYOUT`).  A hit hands the
validated columns to the caller as they are: the machine-wide
aggregates the drivers render read them directly, and per-node records
are built only if something asks for them.

Invalidation rules (each counted in :attr:`ResultCache.invalidated`
and then treated as a miss):

* unreadable / non-JSON file (a directory at the entry's path is
  unreadable),
* ``schema`` != :data:`CACHE_SCHEMA_VERSION` (entries written before
  schema 3 are invalidated this way),
* ``spec_key`` mismatch (file renamed or copied between keys),
* stats payload rejected by ``MachineStats.from_columns``: its own
  version stamp or ``layout`` changed, ``nodes`` is not the spec's
  ``n_procs``, or a column is missing, extra, of the wrong length or
  a single value that is not an int.

A spec-schema bump changes every key, so older entries are simply
never looked up again; they can be garbage-collected with ``clear``.
The same holds for an entry whose stored spec names a workload or
machine option that no longer exists: no buildable spec hashes to its
key.  Writes are atomic (tempfile + rename), so a crashed run never
leaves a half-written entry behind.  A ``put`` over anything that is
not a regular file (a directory, a link, a pipe) drops its temp file
and leaves that path alone.  The cache grows without bound.

Hot tier
--------

``hot_entries > 0`` adds an in-memory LRU of deserialized results in
front of the JSON files: a repeated ``get`` skips the file read, the
JSON parse and the stats rehydration entirely (hot hits still count as
:attr:`hits`, and additionally as :attr:`hot_hits`).  Every driver
(the experiment CLIs, ``repro compare``, the library helpers and the
bench sweep suite) sizes it to :data:`HOT_ENTRIES`; a bare
``ResultCache`` keeps it off, so it sees files corrupted behind its
back.  Callers that return cached results must treat the stats payload
as read-only -- hot hits share one deserialized object.  Writes are
always write-through: an entry is on disk when ``put`` returns.

A cache is used from one thread at a time (the engine's); it holds no
lock.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from collections import OrderedDict
from pathlib import Path

from repro.stats.counters import MachineStats
from repro.sweep.spec import RunResult, RunSpec

#: version of the cache-file envelope (the fields *around* the stats
#: payload, and the layout of the stats payload); the stats counters
#: carry their own version.
#: v2: ``stats`` is columnar (``MachineStats.to_columns``).
#: v3: positional columns, single-int constant columns, ``nodes`` and
#: ``layout``.
CACHE_SCHEMA_VERSION = 3

#: default cache location; overridable with $REPRO_CACHE_DIR or the
#: ``--cache-dir`` CLI flag.
DEFAULT_CACHE_DIR = ".repro-cache"

#: hot-tier size every driver builds its cache with.
HOT_ENTRIES = 512


def default_cache_dir() -> Path:
    """The cache root the CLI uses when none is given."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


#: opens entries without blocking (Unix; Windows has no named pipes here).
_O_NONBLOCK = getattr(os, "O_NONBLOCK", 0)


def _open_nonblocking(path: str, flags: int) -> int:
    """``open``'s opener for entry reads: one ``os.open``, non-blocking."""
    return os.open(path, flags | _O_NONBLOCK)


def _holds_a_non_file(path: Path) -> bool:
    """Whether something other than a regular file sits at ``path``."""
    try:
        return not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        return False


class ResultCache:
    """Spec-addressed store of completed :class:`RunResult` payloads."""

    def __init__(self, root: str | Path, hot_entries: int = 0) -> None:
        self.root = Path(root)
        #: ``root`` as a string, for the read path's file names
        self._root_str = os.fspath(self.root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValueError(
                f"cache dir {self.root} exists and is not a directory"
            ) from None
        self.hot_entries = max(0, hot_entries)
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        #: hot-tier counters (always present; 0 when the tier is off).
        self.hot_hits = 0
        self.hot_misses = 0
        #: hot tier: key -> RunResult, LRU order.  None when
        #: hot_entries == 0.
        self._hot: OrderedDict[str, RunResult] | None = (
            OrderedDict() if self.hot_entries else None
        )

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
        if self._hot is not None:
            hot = self._hot.get(key)
            if hot is not None:
                self.hits += 1
                self.hot_hits += 1
                self._hot.move_to_end(key)
                return RunResult(spec=spec, stats=hot.stats,
                                 wall_time=hot.wall_time, from_cache=True)
            self.hot_misses += 1
        payload = self._load(key)
        if payload is None:
            return None
        try:
            stats = MachineStats.from_columns(payload["stats"], spec.n_procs)
            wall_time = float(payload.get("wall_time", 0.0))
        except (KeyError, TypeError, ValueError):
            self._invalidate(key)
            return None
        self.hits += 1
        result = RunResult(
            spec=spec, stats=stats, wall_time=wall_time, from_cache=True
        )
        self._hot_store(key, result)
        return result

    def _load(self, key: str) -> dict | None:
        """Read + envelope-check one entry (miss/invalidate accounting)."""
        # a plain string path and an explicit UTF-8 decode: cheaper
        # than a ``Path`` and ``json.loads(bytes)``'s encoding sniffing.
        # Unbuffered: no ``BufferedReader`` is built around the file,
        # and ``read()`` is ``FileIO.readall``, one read sized by ``fstat``.
        # O_NONBLOCK: a named pipe at the path opens at once and reads
        # as empty (or None, with a writer attached) instead of
        # blocking; on a regular file the flag changes nothing.
        path = f"{self._root_str}/{key[:2]}/{key}.json"
        try:
            with open(path, "rb", buffering=0, opener=_open_nonblocking) as fh:
                payload = json.loads(fh.read().decode())
        except FileNotFoundError:
            self.misses += 1
            return None
        # also bytes that are not UTF-8, and a pipe's None read
        except (OSError, ValueError, AttributeError):
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
        """Store a completed result (atomic file write)."""
        key = result.spec.key()
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "spec_key": key,
            "spec": result.spec.to_wire(),
            "stats": result.stats.to_columns(),
            "wall_time": result.wall_time,
        }
        if self._hot is not None:
            # store the columns' round-trip of the stats, not the live
            # object: hot hits then match a disk read bit for bit and
            # never alias stats the caller may still hold.
            self._hot_store(key, RunResult(
                spec=result.spec,
                stats=MachineStats.from_columns(payload["stats"],
                                                result.spec.n_procs),
                wall_time=result.wall_time,
                from_cache=True,
            ))
        path = self.path_for_key(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # one C-encoder call and one write: ``json.dump`` to a file
        # always runs the pure-Python encoder, chunk by chunk
        data = json.dumps(payload, sort_keys=True).encode()
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            if _holds_a_non_file(path):
                # not ours to replace; the caller keeps its result
                os.unlink(tmp)
                return
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- hot tier -------------------------------------------------------

    def _hot_store(self, key: str, result: RunResult) -> None:
        """Insert/refresh a hot-tier entry."""
        if self._hot is None:
            return
        self._hot.pop(key, None)
        self._hot[key] = result
        while len(self._hot) > self.hot_entries:
            self._hot.popitem(last=False)

    # -- maintenance / introspection ------------------------------------

    def _invalidate(self, key: str) -> None:
        """Drop a stale/corrupt entry; counts as invalidated + miss."""
        self.invalidated += 1
        self.misses += 1
        if self._hot is not None:
            self._hot.pop(key, None)
        try:
            os.unlink(self.path_for_key(key))
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every entry under the root; returns the count."""
        n = 0
        for path in self.root.glob("*/*.json"):
            try:
                os.unlink(path)
                n += 1
            except OSError:
                pass
        if self._hot is not None:
            self._hot.clear()
        return n

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
