"""The local split-transaction bus (paper §4).

"The 256-bit wide local split-transaction bus is clocked at 33 MHz":
one bus cycle is 3 pclocks and moves up to 32 bytes, so a control
message (8-byte header) occupies one cycle and a data-carrying message
(header + 32-byte block) two.  Requests and replies are separate bus
transactions (split transaction), which is how the surrounding code
uses this class: every message arriving at or leaving a node reserves
the bus once, for its own size.
"""

from __future__ import annotations

from repro.sim.resource import FcfsResource


class SplitTransactionBus:
    """Width-aware FCFS bus: occupancy scales with the payload."""

    __slots__ = ("name", "width_bytes", "cycle_pclocks", "_res")

    def __init__(
        self,
        name: str,
        width_bytes: int = 32,
        cycle_pclocks: int = 3,
    ) -> None:
        if width_bytes <= 0 or cycle_pclocks <= 0:
            raise ValueError("bus width and cycle time must be positive")
        self.name = name
        self.width_bytes = width_bytes
        self.cycle_pclocks = cycle_pclocks
        self._res = FcfsResource(name=name)

    def cycles_for(self, size_bytes: int) -> int:
        """Bus cycles one transaction of ``size_bytes`` occupies."""
        return max(1, -(-size_bytes // self.width_bytes))

    def access(self, ready: int, size_bytes: int) -> int:
        """Reserve the bus for one transaction; returns completion time.

        The reference rule: ``System._send`` and ``_deliver_remote``
        inline it for every message.
        """
        occ = self.cycles_for(size_bytes) * self.cycle_pclocks
        return self._res.finish_time(ready, occ)
