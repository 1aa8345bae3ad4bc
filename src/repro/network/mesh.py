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
    """Dimension-order wormhole mesh with per-link FCFS contention.

    Each (src, dst) pair's route is built once, on its first message,
    as the tuple of its links' FCFS ledgers; a message then reserves
    the hops inline.  Link busy time is kept per path (one addition
    per message, not one per hop) and summed onto the links only when
    :meth:`max_link_utilization` asks for it.
    """

    def __init__(self, cfg: NetworkConfig, n_nodes: int) -> None:
        self._dims = mesh_dims(n_nodes)
        self._width = self._dims[0]
        self._n = n_nodes
        self._cfg = cfg
        self._link_bits = cfg.link_width_bits
        self._hop = cfg.hop_cycles
        self._links: dict[tuple[int, int], FcfsResource] = {}
        #: ``src * n + dst`` -> the route's link ledgers (built on first
        #: use), and the flits sent along it
        self._paths: list[tuple[FcfsResource, ...] | None] = [None] * n_nodes**2
        self._path_flits = [0] * n_nodes**2

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
        return max(1, -(-size_bytes * 8 // self._link_bits))

    def _build_path(self, src: int, dst: int) -> tuple[FcfsResource, ...]:
        path = self._paths[src * self._n + dst] = tuple(
            self._links.setdefault(edge, FcfsResource(f"link{edge[0]}->{edge[1]}"))
            for edge in self.route(src, dst)
        )
        return path

    def arrival_time(self, src: int, dst: int, size_bytes: int, ready: int) -> int:
        """Head-flit propagation with per-link body occupancy."""
        if src == dst:
            return ready
        # flits(), inlined: a message is at least a header, so at
        # least one flit
        flits = -(-size_bytes * 8 // self._link_bits)
        idx = src * self._n + dst
        path = self._paths[idx]
        if path is None:
            path = self._build_path(src, dst)
        self._path_flits[idx] += flits
        hop = self._hop
        t = ready
        for res in path:
            # FcfsResource.reserve, inlined: the head waits for the
            # link, the body holds it for ``flits`` cycles
            free = res._free_at
            if free > t:
                t = free
            res._free_at = t + flits
            t += hop
        return t + flits

    def max_link_utilization(self, elapsed: int) -> float:
        """Peak link utilization -- saturation indicator for §5.3."""
        busy: dict[tuple[int, int], int] = {}
        n = self._n
        for idx, flits in enumerate(self._path_flits):
            if flits:
                for edge in self.route(idx // n, idx % n):
                    busy[edge] = busy.get(edge, 0) + flits
        if not busy or elapsed <= 0:
            return 0.0
        return min(1.0, max(busy.values()) / elapsed)
