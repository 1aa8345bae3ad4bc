"""Centralized counter barriers.

Each barrier id is served by a counter at a home node.  Arrivals
accumulate; when the expected count is reached every waiter receives a
wake-up message and the arrival list empties, so the barrier can be
reused immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BarrierState:
    """One barrier's counter and waiter list."""

    expected: int
    arrived: list[int] = field(default_factory=list)


class BarrierTable:
    """All barriers homed at one node."""

    def __init__(self) -> None:
        self._barriers: dict[int, BarrierState] = {}

    def arrive(self, bar_id: int, node: int, expected: int) -> list[int] | None:
        """Register an arrival; returns the wake list when complete."""
        state = self._barriers.get(bar_id)
        if state is None:
            state = BarrierState(expected=expected)
            self._barriers[bar_id] = state
        if state.expected != expected:
            raise ValueError(
                f"barrier {bar_id}: expected-count mismatch "
                f"({state.expected} vs {expected})"
            )
        state.arrived.append(node)
        if len(state.arrived) >= state.expected:
            wake = list(state.arrived)
            state.arrived.clear()
            return wake
        return None

    def waiting(self, bar_id: int) -> int:
        """Number of processors currently parked at ``bar_id``."""
        state = self._barriers.get(bar_id)
        return len(state.arrived) if state else 0
