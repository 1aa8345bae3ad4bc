"""Parallel sweep engine with result caching.

The paper's evaluation is a cross-product of protocols × consistency
models × applications × networks.  This package turns one cell of such
a sweep into a value object (:class:`RunSpec`), executes batches of
them serially or across worker processes (:class:`SweepEngine`), and
memoizes completed cells on disk (:class:`ResultCache`) so an
unchanged experiment re-renders without simulating anything.

Typical use::

    from repro.sweep import RunSpec, sweep

    specs = [RunSpec.for_run("mp3d", protocol=p) for p in ("BASIC", "P+CW")]
    results = sweep(specs, jobs=4, cache_dir=".repro-cache")
    for r in results:
        print(r.spec.label(), r.execution_time, r.from_cache)

See ``docs/sweeps.md`` for the cache layout and invalidation rules.
"""

import importlib
from typing import TYPE_CHECKING

from repro.sweep.spec import (
    DEFAULT_SEED,
    SPEC_SCHEMA_VERSION,
    RunResult,
    RunSpec,
    SpecSchemaError,
)

if TYPE_CHECKING:
    from repro.sweep.cache import (
        CACHE_SCHEMA_VERSION,
        DEFAULT_CACHE_DIR,
        HOT_ENTRIES,
        ResultCache,
        default_cache_dir,
    )
    from repro.sweep.engine import (
        ProgressEvent,
        SweepEngine,
        execute_spec,
        run_spec,
        sweep,
    )
    from repro.sweep.pool import (
        PersistentPool,
        WorkerCrashError,
        estimate_cost,
        shared_pool,
        shutdown_shared_pool,
    )

#: exports resolved on first use, by home module, so that naming a
#: cell (``RunSpec``) does not import the engine, the pool and the
#: cache, nor multiprocessing, concurrent.futures and logging.
_LAZY = {
    **dict.fromkeys(
        ("CACHE_SCHEMA_VERSION", "DEFAULT_CACHE_DIR", "HOT_ENTRIES",
         "ResultCache", "default_cache_dir"),
        "repro.sweep.cache"),
    **dict.fromkeys(
        ("ProgressEvent", "SweepEngine", "execute_spec",
         "run_spec", "sweep"),
        "repro.sweep.engine"),
    **dict.fromkeys(
        ("PersistentPool", "WorkerCrashError", "estimate_cost",
         "shared_pool", "shutdown_shared_pool"),
        "repro.sweep.pool"),
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
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SEED",
    "HOT_ENTRIES",
    "PersistentPool",
    "ProgressEvent",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "SPEC_SCHEMA_VERSION",
    "SpecSchemaError",
    "SweepEngine",
    "WorkerCrashError",
    "default_cache_dir",
    "estimate_cost",
    "execute_spec",
    "run_spec",
    "shared_pool",
    "shutdown_shared_pool",
    "sweep",
]
