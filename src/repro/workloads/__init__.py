"""The five SPLASH-like synthetic workloads of the evaluation (§4)."""

from typing import Callable

from repro.config import SystemConfig
from repro.workloads import cholesky, hitpath, lu, mp3d, ocean, water
from repro.workloads.base import Op, StreamBuilder

#: workload registry, in the paper's presentation order, plus the
#: hot-path microbenchmark used by the benchmark harness
WORKLOADS: dict[str, Callable] = {
    "mp3d": mp3d.streams,
    "cholesky": cholesky.streams,
    "water": water.streams,
    "lu": lu.streams,
    "ocean": ocean.streams,
    "hitpath": hitpath.streams,
}

#: the five applications of the paper's evaluation
APP_NAMES = ("mp3d", "cholesky", "water", "lu", "ocean")

#: every available workload, including extensions
ALL_APP_NAMES = tuple(WORKLOADS)


def build_workload(
    name: str, cfg: SystemConfig, scale: float = 1.0, seed: int = 1994, **kw
) -> list[list[Op]]:
    """Build the named workload's per-processor reference streams."""
    try:
        factory = WORKLOADS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return factory(cfg, scale=scale, seed=seed, **kw)


__all__ = [
    "ALL_APP_NAMES",
    "APP_NAMES",
    "Op",
    "StreamBuilder",
    "WORKLOADS",
    "build_workload",
]
