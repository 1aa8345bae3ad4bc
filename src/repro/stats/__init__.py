"""Statistics: time decomposition, miss classification, traffic,
epoch sampling, and sharing-pattern analysis."""

import importlib
from typing import TYPE_CHECKING

from repro.stats.classify import MissClassifier
from repro.stats.counters import (
    CacheStats,
    MachineStats,
    NetworkStats,
    ProcessorStats,
)

if TYPE_CHECKING:
    from repro.stats.epochs import Epoch, EpochSampler, sparkline
    from repro.stats.sharing import Pattern, SharingProfile, analyze

#: exports resolved on first use, by home module: reading counters
#: (the result cache, the experiment reports) loads neither analysis.
_LAZY = {
    **dict.fromkeys(("Epoch", "EpochSampler", "sparkline"),
                    "repro.stats.epochs"),
    **dict.fromkeys(("Pattern", "SharingProfile", "analyze"),
                    "repro.stats.sharing"),
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "CacheStats",
    "Epoch",
    "EpochSampler",
    "MachineStats",
    "MissClassifier",
    "NetworkStats",
    "Pattern",
    "ProcessorStats",
    "SharingProfile",
    "analyze",
    "sparkline",
]
