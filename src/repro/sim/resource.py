"""First-come-first-served resources (buses, memory banks, mesh links).

Contention inside a node (paper §4: "contention is accurately modelled in
each node") and on mesh links (§5.3) is modelled with a *next-free-time*
reservation discipline: a request that becomes ready at time ``t`` and
occupies the resource for ``d`` cycles starts at ``max(t, free)`` and
pushes ``free`` to ``start + d``.  Because all requests flow through the
deterministic event queue, which fires events in time order and, within
one time, in push order, reservation order equals arrival order.

A ledger keeps only its free time: no result reads a node resource's
busy time or reservation count, so the hot reservation sites (inlined
throughout the simulator) pay for nothing else.  The mesh counts its
links' busy time itself (``MeshNetwork.max_link_utilization``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class FcfsResource:
    """A single-server FCFS resource with next-free-time reservation."""

    name: str
    _free_at: int = 0

    def reserve(self, ready: int, occupancy: int) -> int:
        """Reserve the resource; returns the start time of service.

        ``ready``     -- earliest time the request can use the resource.
        ``occupancy`` -- cycles the resource is held.
        """
        if occupancy < 0:
            raise ValueError(f"negative occupancy {occupancy}")
        free = self._free_at
        start = ready if ready > free else free
        self._free_at = start + occupancy
        return start

    def finish_time(self, ready: int, occupancy: int) -> int:
        """Reserve and return the completion time (start + occupancy)."""
        if occupancy < 0:
            raise ValueError(f"negative occupancy {occupancy}")
        free = self._free_at
        start = ready if ready > free else free
        end = start + occupancy
        self._free_at = end
        return end

    @property
    def free_at(self) -> int:
        """Time at which the resource next becomes idle."""
        return self._free_at
