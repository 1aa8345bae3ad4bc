"""Wormhole-routed mesh (paper §5.3).

A 2D mesh with dimension-order (X then Y) routing and two-phase
(routing + transfer) switches clocked at the processor frequency.  A
message of *S* bytes on *W*-bit links serializes into
``ceil(8 S / W)`` flits.  The head flit pays the 2-cycle hop latency
per switch; the body streams behind it, holding each link for the
serialization time -- which is how narrow links (16-bit) saturate
under the extra traffic of P+CW while 64-bit links do not.

The paper's machine is the square 4x4 mesh; other node counts factor
into the squarest ``W >= H`` rectangle (``mesh_dims(n)``).  Prime
counts degenerate to an N x 1 chain, which is still a valid (if
bisection-starved) mesh.
"""

from __future__ import annotations

import math

from repro.config import NetworkConfig
from repro.sim.resource import FcfsResource


def mesh_dims(n_nodes: int) -> tuple[int, int]:
    """The squarest ``(width, height)`` factoring of ``n_nodes``.

    Height is the largest divisor not exceeding ``sqrt(n)``, so square
    counts stay square (16 -> 4x4) and the rest get the most balanced
    rectangle available (12 -> 4x3, 8 -> 4x2, 7 -> 7x1).
    """
    if n_nodes < 1:
        raise ValueError(f"mesh needs at least one node, got {n_nodes}")
    h = int(math.isqrt(n_nodes))
    while n_nodes % h:
        h -= 1
    return n_nodes // h, h


class MeshNetwork:
    """Dimension-order wormhole mesh with per-link FCFS contention."""

    def __init__(self, cfg: NetworkConfig, n_nodes: int) -> None:
        self._dims = mesh_dims(n_nodes)
        self._width = self._dims[0]
        self._cfg = cfg
        self._links: dict[tuple[int, int], FcfsResource] = {}

    @property
    def dims(self) -> tuple[int, int]:
        """Mesh dimensions ``(width, height)`` (4x4 for the paper)."""
        return self._dims

    def _coords(self, node: int) -> tuple[int, int]:
        return node % self._width, node // self._width

    def route(self, src: int, dst: int) -> list[tuple[int, int]]:
        """Dimension-order path as a list of directed (from, to) links."""
        path = []
        x, y = self._coords(src)
        dx, dy = self._coords(dst)
        cur = src
        while x != dx:
            x += 1 if dx > x else -1
            nxt = y * self._width + x
            path.append((cur, nxt))
            cur = nxt
        while y != dy:
            y += 1 if dy > y else -1
            nxt = y * self._width + x
            path.append((cur, nxt))
            cur = nxt
        return path

    def flits(self, size_bytes: int) -> int:
        """Serialization length of a message in link cycles."""
        return max(1, math.ceil(size_bytes * 8 / self._cfg.link_width_bits))

    def _link(self, edge: tuple[int, int]) -> FcfsResource:
        res = self._links.get(edge)
        if res is None:
            res = FcfsResource(name=f"link{edge[0]}->{edge[1]}")
            self._links[edge] = res
        return res

    def arrival_time(self, src: int, dst: int, size_bytes: int, ready: int) -> int:
        """Head-flit propagation with per-link body occupancy."""
        if src == dst:
            return ready
        flits = self.flits(size_bytes)
        t = ready
        for edge in self.route(src, dst):
            start = self._link(edge).reserve(t, flits)
            t = start + self._cfg.hop_cycles
        return t + flits

    def max_link_utilization(self, elapsed: int) -> float:
        """Peak link utilization -- saturation indicator for §5.3."""
        if not self._links:
            return 0.0
        return max(link.utilization(elapsed) for link in self._links.values())
