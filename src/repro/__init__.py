"""repro -- reproduction of Dahlgren, Dubois & Stenström (ISCA 1994),
"Combined Performance Gains of Simple Cache Protocol Extensions".

A detailed architectural simulator of a 16-node directory-based
CC-NUMA multiprocessor with three cache-protocol extensions --
adaptive sequential prefetching (P), the migratory sharing
optimization (M) and a competitive-update mechanism with write caches
(CW) -- evaluated alone and in combination under sequential and
release consistency, with contention-free and wormhole-mesh networks.

Quickstart::

    from repro import SystemConfig, System
    from repro.workloads import build_workload

    cfg = SystemConfig().with_protocol("P+CW")
    streams = build_workload("mp3d", cfg, scale=0.5)
    stats = System(cfg).run(streams)
    print(stats.execution_time, stats.miss_rate("coherence"))
"""

import importlib
from typing import TYPE_CHECKING

from repro.config import (
    ALL_PROTOCOLS,
    SC_PROTOCOLS,
    CacheConfig,
    CompetitiveConfig,
    Consistency,
    NetworkConfig,
    NetworkKind,
    PrefetchConfig,
    ProtocolConfig,
    SystemConfig,
    TimingConfig,
)
from repro.stats.counters import MachineStats
from repro.sweep.spec import RunResult, RunSpec

if TYPE_CHECKING:
    from repro import api
    from repro.sweep import ResultCache, SweepEngine, sweep
    from repro.system import System, run_system

#: exports resolved on first use, by home module: a direct simulation
#: never imports the high-level API or the sweep engine, pool and
#: cache, nor what they import (multiprocessing, logging, ...), and an
#: experiment CLI that reads its cells from the cache never imports
#: the simulator.
_LAZY = {
    "api": "repro.api",
    "ResultCache": "repro.sweep.cache",
    "SweepEngine": "repro.sweep.engine",
    "sweep": "repro.sweep.engine",
    "System": "repro.system",
    "run_system": "repro.system",
}

# Importing repro.sweep.spec bound the subpackage to ``sweep`` here;
# the package's ``sweep`` export is the sweep() helper, so unbind the
# subpackage and let __getattr__ resolve the name.
del globals()["sweep"]


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(home)
    value = module if name == "api" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "1.0.0"

__all__ = [
    "ALL_PROTOCOLS",
    "api",
    "CacheConfig",
    "CompetitiveConfig",
    "Consistency",
    "MachineStats",
    "NetworkConfig",
    "NetworkKind",
    "PrefetchConfig",
    "ProtocolConfig",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "SC_PROTOCOLS",
    "SweepEngine",
    "System",
    "SystemConfig",
    "TimingConfig",
    "run_system",
    "sweep",
]
