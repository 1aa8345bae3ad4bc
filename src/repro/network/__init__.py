"""Interconnect models: uniform contention-free and wormhole mesh."""

from repro.network.mesh import MeshNetwork
from repro.network.uniform import UniformNetwork

__all__ = ["MeshNetwork", "UniformNetwork"]


def build_network(cfg, n_nodes):
    """Instantiate the interconnect selected by ``cfg.kind``."""
    from repro.config import NetworkKind

    if cfg.kind is NetworkKind.MESH:
        return MeshNetwork(cfg, n_nodes)
    return UniformNetwork(cfg)
