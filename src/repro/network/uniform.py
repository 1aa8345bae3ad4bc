"""Contention-free uniform-latency network (paper §4 default).

Every node-to-node message takes a fixed 54 pclocks regardless of
placement and load ("a contention-free uniform access time network
with a node-to-node latency of 54 pclocks").  Node-internal contention
(bus, memory, SLC) is modelled elsewhere.
"""

from __future__ import annotations

from repro.config import NetworkConfig


class UniformNetwork:
    """Infinite-bandwidth interconnect with constant latency."""

    __slots__ = ("_latency",)

    def __init__(self, cfg: NetworkConfig) -> None:
        self._latency = cfg.uniform_latency

    def arrival_time(self, src: int, dst: int, size_bytes: int, ready: int) -> int:
        """When a message departing at ``ready`` reaches ``dst``."""
        if src == dst:
            return ready
        return ready + self._latency

    def max_link_utilization(self, elapsed: int) -> float:
        """Always 0.0: the uniform network is contention-free."""
        return 0.0
