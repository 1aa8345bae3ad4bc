"""First- and second-level write buffers.

* The **FLWB** (§2) buffers writes (and, under RC, lets the processor
  run past them) in FIFO order between the write-through FLC and the
  SLC.  A full FLWB stalls the processor.

* The **SLWB** (§2) is the lockup-free SLC's bookkeeping for *pending
  global requests*: ownership requests, prefetches, write-cache
  flushes and releases.  Entries retire out of order when their
  transaction completes.  A full SLWB stops the FLWB drain, which in
  turn backpressures the processor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, auto
from typing import Any


class SlwbKind(Enum):
    """What a pending SLWB entry is waiting for."""

    READ = auto()       # demand read miss
    OWNERSHIP = auto()  # OWN_REQ / RDX_REQ pending
    PREFETCH = auto()   # P: non-binding prefetch in flight
    WC_FLUSH = auto()   # CW: write-cache flush awaiting WC_ACK
    SYNC = auto()       # acquire / release / barrier in flight


@dataclass(slots=True)
class FlwbEntry:
    """One buffered write (or synchronization marker) in the FLWB.

    Markers (``marker`` is not None) keep FIFO ordering between writes
    and releases/barriers but do not occupy a buffer entry.
    """

    addr: int
    marker: Any = None


class Flwb:
    """FIFO first-level write buffer."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("FLWB needs at least one entry")
        self.capacity = capacity
        self._fifo: deque[FlwbEntry] = deque()
        self._writes = 0

    @property
    def full(self) -> bool:
        """True when a new write cannot be accepted."""
        return self._writes >= self.capacity

    def push(self, entry: FlwbEntry) -> None:
        """Append an entry; caller checks :attr:`full` for writes."""
        if entry.marker is None:
            if self.full:
                raise OverflowError("FLWB overflow")
            self._writes += 1
        self._fifo.append(entry)

    def pop(self) -> FlwbEntry:
        """Remove and return the oldest entry.

        ``CacheController._drain_head`` inlines this on the drain path.
        """
        entry = self._fifo.popleft()
        if entry.marker is None:
            self._writes -= 1
        return entry

    def peek(self) -> FlwbEntry:
        """The oldest entry without removing it."""
        return self._fifo[0]

    def contains_write_to(self, addr: int) -> bool:
        """True if a buffered write targets this exact address
        (store-to-load forwarding lookup)."""
        for entry in self._fifo:
            if entry.marker is None and entry.addr == addr:
                return True
        return False

    @property
    def empty(self) -> bool:
        """True when nothing (writes or markers) is buffered."""
        return not self._fifo

    def __len__(self) -> int:
        return self._writes


class Slwb:
    """Out-of-order second-level write buffer (pending-request table)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("SLWB needs at least one entry")
        self.capacity = capacity
        self._entries: dict[int, SlwbKind] = {}
        self._next_id = 0

    @property
    def full(self) -> bool:
        """True when no entry is free."""
        return len(self._entries) >= self.capacity

    def has_room(self, n: int = 1) -> bool:
        """True when at least ``n`` entries are free.

        The per-event callers (the cache controller, the P and CW
        extensions) inline the ``n == 1`` test, each marked
        ``Slwb.has_room, inlined``.
        """
        return len(self._entries) + n <= self.capacity

    def alloc(self, kind: SlwbKind) -> int:
        """Allocate an entry; returns its id.  Caller checks room first."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise OverflowError("SLWB overflow")
        eid = self._next_id
        self._next_id = eid + 1
        entries[eid] = kind
        return eid

    def release(self, eid: int) -> SlwbKind:
        """Retire entry ``eid``; returns its kind."""
        return self._entries.pop(eid)

    def count(self, kind: SlwbKind | None = None) -> int:
        """Number of pending entries (optionally of one kind)."""
        if kind is None:
            return len(self._entries)
        return sum(1 for k in self._entries.values() if k is kind)

    def __len__(self) -> int:
        return len(self._entries)
