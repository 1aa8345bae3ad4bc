"""The five SPLASH-like synthetic workloads of the evaluation (§4).

Each workload's generator is its own module, imported on first use:
naming or validating a workload (``APP_NAMES``, ``RunSpec``) loads no
generator.
"""

import importlib
from typing import TYPE_CHECKING, Callable

from repro.config import SystemConfig

if TYPE_CHECKING:
    from repro.workloads.base import Op, StreamBuilder

#: the five applications of the paper's evaluation
APP_NAMES = ("mp3d", "cholesky", "water", "lu", "ocean")

#: every available workload, in the paper's presentation order, plus
#: the hot-path microbenchmark of the end-to-end benchmark; the
#: generator of ``name`` is ``repro.workloads.<name>.streams``
ALL_APP_NAMES = APP_NAMES + ("hitpath",)


def build_workload(
    name: str, cfg: SystemConfig, scale: float = 1.0, seed: int = 1994, **kw
) -> "list[list[Op]]":
    """Build the named workload's per-processor reference streams."""
    app = name.lower()
    if app not in ALL_APP_NAMES:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(ALL_APP_NAMES)}"
        )
    return _generator(app)(cfg, scale=scale, seed=seed, **kw)


def _generator(app: str) -> Callable:
    return importlib.import_module(f"repro.workloads.{app}").streams


def __getattr__(name: str):
    if name == "WORKLOADS":  # name -> generator; imports every one
        value: object = {app: _generator(app) for app in ALL_APP_NAMES}
    elif name in ("Op", "StreamBuilder"):
        value = getattr(importlib.import_module("repro.workloads.base"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | {"Op", "StreamBuilder", "WORKLOADS"})


__all__ = [
    "ALL_APP_NAMES",
    "APP_NAMES",
    "Op",
    "StreamBuilder",
    "WORKLOADS",
    "build_workload",
]
