"""Shared experiment plumbing on top of the sweep engine.

The table/figure drivers build :class:`~repro.sweep.RunSpec` batches
and push them through one :class:`~repro.sweep.SweepEngine`, which
parallelizes across worker processes (``--jobs``) and memoizes
completed cells on disk (``--cache-dir`` / ``--no-cache``).  This
module keeps:

* the paper-default config helpers (:func:`make_config`,
  :func:`mesh_network`, :func:`small_buffer_cache`,
  :func:`limited_slc_cache`),
* the argparse plumbing every driver CLI shares
  (:func:`scale_arg`, :func:`add_sweep_args`, :func:`engine_from_args`,
  :func:`print_sweep_summary`).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable

from repro.config import (
    CacheConfig,
    Consistency,
    NetworkConfig,
    NetworkKind,
    SystemConfig,
)
from repro.sweep import (
    DEFAULT_SEED,
    HOT_ENTRIES,
    ProgressEvent,
    ResultCache,
    RunResult,
    RunSpec,
    SweepEngine,
    default_cache_dir,
)

__all__ = [
    "DEFAULT_SEED",
    "RunResult",
    "RunSpec",
    "add_sweep_args",
    "engine_from_args",
    "execute",
    "limited_slc_cache",
    "make_config",
    "mesh_network",
    "print_sweep_summary",
    "scale_arg",
    "small_buffer_cache",
]


def make_config(
    protocol: str = "BASIC",
    consistency: Consistency = Consistency.RC,
    network: NetworkConfig | None = None,
    cache: CacheConfig | None = None,
    n_procs: int = 16,
) -> SystemConfig:
    """A paper-default SystemConfig with the given overrides."""
    cfg = SystemConfig(
        n_procs=n_procs,
        consistency=consistency,
        network=network or NetworkConfig(),
        cache=cache or CacheConfig(),
    )
    return cfg.with_protocol(protocol)


def execute(
    specs: Iterable[RunSpec], engine: SweepEngine | None = None
) -> list[RunResult]:
    """Run a spec batch through ``engine`` (serial one-off if None)."""
    return (engine or SweepEngine()).run(specs)


def mesh_network(link_width_bits: int) -> NetworkConfig:
    """The §5.3 wormhole mesh with the given link width."""
    return NetworkConfig(kind=NetworkKind.MESH, link_width_bits=link_width_bits)


def small_buffer_cache() -> CacheConfig:
    """§5.4: 4-entry FLWB and SLWB."""
    return CacheConfig(flwb_entries=4, slwb_entries=4)


def limited_slc_cache(size: int = 16 * 1024) -> CacheConfig:
    """§5.4: bounded direct-mapped SLC (16 KB by default)."""
    return CacheConfig(slc_size=size)


# ----------------------------------------------------------------------
# CLI plumbing shared by every experiment driver
# ----------------------------------------------------------------------

def scale_arg(text: str) -> float:
    """argparse type of every ``--scale``: a finite number > 0.

    :class:`~repro.sweep.RunSpec` refuses any other scale; checking it
    at parse time turns a bad value into a usage error (exit code 2)
    instead of a traceback.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text!r}"
        )
    return value


def positive_int_arg(text: str) -> int:
    """argparse type of ``--jobs`` and ``--procs``: a whole number >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """Install the engine's ``--jobs/--cache-dir/--no-cache/--seed``."""
    group = parser.add_argument_group("sweep engine")
    group.add_argument(
        "--jobs", type=positive_int_arg, default=1, metavar="N",
        help="worker processes for the sweep (1 = serial, the default)",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             f"{default_cache_dir()!s})",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; neither read nor write the result cache",
    )
    group.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="workload generation seed (default: %(default)s)",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="report per-cell completion on stderr",
    )


def _progress_printer(event: ProgressEvent) -> None:
    print(
        f"[sweep {event.index + 1}/{event.total}] {event.spec.label()} "
        f"{event.wall_time:.2f}s ({event.source})",
        file=sys.stderr,
        flush=True,
    )


def engine_from_args(args: argparse.Namespace) -> SweepEngine:
    """Build the engine described by :func:`add_sweep_args` flags."""
    cache = None
    if not args.no_cache:
        cache = ResultCache(
            args.cache_dir or default_cache_dir(), hot_entries=HOT_ENTRIES
        )
    return SweepEngine(
        max_workers=args.jobs,
        cache=cache,
        on_result=_progress_printer if args.progress else None,
    )


def print_sweep_summary(engine: SweepEngine) -> None:
    """Counter digest on stderr (stdout stays byte-identical)."""
    print(engine.summary(), file=sys.stderr, flush=True)
