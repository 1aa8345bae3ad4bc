"""Queue-based lock mechanism at memory (paper §4).

"Synchronization is based on a queue-based lock mechanism at memory
similar to the one implemented in DASH, with a single lock variable per
memory block."  The lock state lives at the home node of the lock
variable: a request to a held lock is queued there, and the grant is
sent directly to the next waiter when the holder releases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class LockState:
    """State of one lock variable at its home memory module."""

    held: bool = False
    holder: int | None = None
    queue: deque[int] = field(default_factory=deque)


class LockTable:
    """All lock variables homed at one node."""

    def __init__(self) -> None:
        self._locks: dict[int, LockState] = {}

    def _lock(self, addr: int) -> LockState:
        state = self._locks.get(addr)
        if state is None:
            state = LockState()
            self._locks[addr] = state
        return state

    def request(self, addr: int, node: int) -> bool:
        """Try to take the lock for ``node``; False means queued."""
        lock = self._lock(addr)
        if not lock.held:
            lock.held = True
            lock.holder = node
            return True
        lock.queue.append(node)
        return False

    def release(self, addr: int, node: int) -> int | None:
        """Release the lock; returns the next node to grant to, if any."""
        lock = self._lock(addr)
        if not lock.held or lock.holder != node:
            raise ValueError(
                f"node {node} released lock {addr:#x} held by {lock.holder}"
            )
        if lock.queue:
            nxt = lock.queue.popleft()
            lock.holder = nxt
            return nxt
        lock.held = False
        lock.holder = None
        return None

    def holder_of(self, addr: int) -> int | None:
        """Current holder (for invariant checks)."""
        lock = self._locks.get(addr)
        return lock.holder if lock else None
