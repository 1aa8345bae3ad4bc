"""On-disk result cache: one file per completed simulation cell.

Layout::

    <root>/<key[:2]>/<key>.json

where ``key`` is :meth:`RunSpec.key` -- a sha256 over the canonical
spec JSON plus the spec schema version.  Each file has three parts::

    {"schema":4,"spec_key":"<key>","stats":{...},"wall_time":1.234}\n
    {"v":...,"app":...}\n
    <counter block>

* **Line 1, a compact JSON header**: ``schema``
  (:data:`CACHE_SCHEMA_VERSION`), ``spec_key`` (a self-check against
  renamed files), ``wall_time`` (simulation seconds when first run) and
  ``stats``, the head of ``MachineStats.to_columns()``: its
  ``version``, ``layout`` (:data:`~repro.stats.counters.COLUMNS_LAYOUT`,
  a digest of the counter order), ``nodes``, ``execution_time`` and
  ``network``.
* **Line 2, the spec's** ``RunSpec.to_json()``, so an entry describes
  itself to people and tools.  The read path never parses it.
* **The rest, the per-node counters**: one block of little-endian
  signed int64 values, the 11 ``ProcessorStats`` columns and then the
  16 ``CacheStats`` ones, each ``nodes`` values long -- exactly
  ``27 * nodes * 8`` bytes.

JSON escapes newlines, so neither JSON line holds a raw one, and a
read splits the file on its first two newlines.  It parses the header
alone and hands the block to ``MachineStats.from_columns``, which
keeps its columns as ``array('q')`` values: the machine-wide
aggregates the drivers render sum them, and per-node records are built
only if something asks for them.

Invalidation rules (each counted in :attr:`ResultCache.invalidated`
and then treated as a miss):

* unreadable file, or one without two newlines or whose header is not
  JSON (a directory at the entry's path is unreadable; an entry of
  schema 3 or older is a single JSON document with no raw newline),
* ``schema`` != :data:`CACHE_SCHEMA_VERSION`,
* ``spec_key`` mismatch (file renamed or copied between keys),
* stats rejected by ``MachineStats.from_columns``: its version stamp
  or ``layout`` changed, ``nodes`` is not the spec's ``n_procs``, or
  the block is not exactly one int64 per counter per node.

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
front of the entry files: a repeated ``get`` skips the file read, the
header parse and the stats rehydration entirely (hot hits still count as
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

#: version of the cache-file format (the header fields *around* the
#: stats, and the layout of the stats); the stats counters carry their
#: own version.
#: v2: ``stats`` is columnar (``MachineStats.to_columns``).
#: v3: positional columns, single-int constant columns, ``nodes`` and
#: ``layout``.
#: v4: a JSON header line, the spec line and one packed int64 block of
#: every per-node counter; constant columns are no longer special.
CACHE_SCHEMA_VERSION = 4

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
        entry = self._load(key)
        if entry is None:
            return None
        header, block = entry
        try:
            stats = MachineStats.from_columns(header["stats"], block,
                                              spec.n_procs)
            wall_time = float(header.get("wall_time", 0.0))
        except (KeyError, TypeError, ValueError):
            self._invalidate(key)
            return None
        self.hits += 1
        result = RunResult(
            spec=spec, stats=stats, wall_time=wall_time, from_cache=True
        )
        self._hot_store(key, result)
        return result

    def _load(self, key: str) -> tuple[dict, memoryview] | None:
        """Read one entry and check its header (miss/invalidate
        accounting); returns the header and the counter block."""
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
                data = fh.read()
            header_end = data.index(b"\n")
            block_start = data.index(b"\n", header_end + 1) + 1
            header = json.loads(data[:header_end].decode())
        except FileNotFoundError:
            self.misses += 1
            return None
        # also fewer than two newlines, a header that is not UTF-8, and
        # a pipe's None read
        except (OSError, ValueError, AttributeError):
            self._invalidate(key)
            return None
        try:
            if header["schema"] != CACHE_SCHEMA_VERSION:
                raise ValueError("cache format version mismatch")
            if header["spec_key"] != key:
                raise ValueError("cache entry does not match its key")
        except (KeyError, TypeError, ValueError):
            self._invalidate(key)
            return None
        return header, memoryview(data)[block_start:]

    # -- write ----------------------------------------------------------

    def put(self, result: RunResult) -> None:
        """Store a completed result (atomic file write).

        Raises :class:`OverflowError` for a counter outside int64, and
        writes nothing then.
        """
        key = result.spec.key()
        head, block = result.stats.to_columns()
        header = {
            "schema": CACHE_SCHEMA_VERSION,
            "spec_key": key,
            "stats": head,
            "wall_time": result.wall_time,
        }
        if self._hot is not None:
            # store the block's round-trip of the stats, not the live
            # object: hot hits then match a disk read bit for bit and
            # never alias stats the caller may still hold.
            self._hot_store(key, RunResult(
                spec=result.spec,
                stats=MachineStats.from_columns(head, block,
                                                result.spec.n_procs),
                wall_time=result.wall_time,
                from_cache=True,
            ))
        path = self.path_for_key(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # one C-encoder call for the header and one write: ``json.dump``
        # to a file always runs the pure-Python encoder, chunk by chunk
        data = b"\n".join((
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode(),
            result.spec.to_json().encode(),
            block,
        ))
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
