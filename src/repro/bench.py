"""Benchmark regression harness: ``repro bench``.

Runs a fixed matrix of (workload x protocol) cells, reports simulator
throughput (events/sec, min-of-N wall time) and emits the results as
``BENCH_<rev>.json`` in a stable schema so that any two revisions can
be compared cell by cell.  CI runs the quick matrix as a smoke job and
fails when a cell regresses more than the allowed factor against the
committed ``benchmarks/baseline.json``.

Schema (``SCHEMA_VERSION = 2``)::

    {
      "schema_version": 2,
      "revision": "<git short rev, '+dirty' suffix when unclean>",
      "python": "3.12.1",
      "platform": "Linux-...",
      "repeat": 3,
      "cells": [
        {"app": ..., "protocol": ..., "n_procs": ..., "scale": ...,
         "backend": ..., "events": ..., "wall_s": ...,
         "events_per_sec": ..., "execution_time": ...},
        ...
      ],
      "totals": {"events": ..., "wall_s": ..., "events_per_sec": ...}
    }

v2 adds ``backend`` to every cell and to the cell identity used by
``--check``.  Simulator cells carry ``"event"``; the sweep suite's
cells carry ``"sweep"``, so the two kinds are never compared.

``events`` and ``execution_time`` are deterministic (pinned by the
golden parity suite); only ``wall_s`` / ``events_per_sec`` vary with
the machine.  ``events`` counts fired simulator events.  Wall time per
cell is the minimum over ``repeat`` runs, which is the standard way to
suppress scheduler noise.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro.config import SystemConfig

SCHEMA_VERSION = 2

#: (app, protocol, n_procs, scale) cells of the quick (CI smoke)
#: matrix: the hot-path microbenchmark the fast path targets, plus
#: paper cells covering every extension and the busiest combination.
QUICK_MATRIX: tuple[tuple, ...] = (
    ("hitpath", "BASIC", 1, 1.0),
    # the same stream on 16 processors: another processor's event
    # nearly always falls inside the next op's window, so the issue
    # loop suspends and resumes once per op instead of eliding
    ("hitpath", "BASIC", 16, 0.2),
    ("mp3d", "BASIC", 16, 0.3),
    ("mp3d", "P+CW+M", 16, 0.3),
    ("water", "P", 16, 0.3),
    ("lu", "BASIC", 16, 0.3),
    ("cholesky", "CW", 16, 0.3),
    ("ocean", "M", 16, 0.3),
    # wall-clock cost at scale: an 8x8-mesh machine (64 homes, wider
    # invalidation fan-out) so throughput regressions that only bite
    # past the paper's 16 processors are caught too.
    ("mp3d", "P+CW", 64, 0.1),
)

#: the five paper applications under all eight protocol combinations
FULL_MATRIX: tuple[tuple, ...] = tuple(
    (app, proto, 16, 0.3)
    for app in ("mp3d", "cholesky", "water", "lu", "ocean")
    for proto in (
        "BASIC", "P", "CW", "M", "P+CW", "P+M", "CW+M", "P+CW+M"
    )
)


def git_revision(repo: Path | None = None) -> str:
    """Short git revision of ``repo`` (cwd), ``+dirty`` when unclean."""
    import subprocess

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("+dirty" if dirty else "")


def _rate(events: int, wall: float) -> dict:
    """``wall_s`` as written, and the throughput derived from it.

    The rate is computed from the rounded wall time, so a reader
    dividing the two written fields gets the written rate back, however
    short the run.
    """
    wall = round(wall, 6)
    return {"wall_s": wall, "events_per_sec": round(events / wall, 1)}


def _document(cells: list, repeat: int) -> dict:
    """A result document over ``cells``, with their totals."""
    events = sum(c["events"] for c in cells)
    return {
        "schema_version": SCHEMA_VERSION,
        "revision": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeat": repeat,
        "cells": cells,
        "totals": {
            "events": events,
            **_rate(events, sum(c["wall_s"] for c in cells)),
        },
    }


def run_cell(
    app: str, protocol: str, n_procs: int, scale: float, *,
    repeat: int = 3,
) -> dict:
    """Run one matrix cell ``repeat`` times; report the best wall time.

    The workload is built once, outside the timed region.
    """
    from repro.system import System
    from repro.workloads import build_workload

    cfg = SystemConfig(n_procs=n_procs).with_protocol(protocol)
    best = None
    events = execution_time = 0
    streams = build_workload(app, cfg, scale=scale)
    for _ in range(max(1, repeat)):
        system = System(cfg)
        t0 = time.perf_counter()
        stats = system.run(streams)
        wall = time.perf_counter() - t0
        events = system.sim.events_fired
        execution_time = stats.execution_time
        if best is None or wall < best:
            best = wall
    return {
        "app": app,
        "protocol": protocol,
        "n_procs": n_procs,
        "scale": scale,
        "backend": "event",
        "events": events,
        **_rate(events, best),
        "execution_time": execution_time,
    }


def run_matrix(
    matrix=QUICK_MATRIX, repeat: int = 3, verbose: bool = False,
) -> dict:
    """Run every cell of ``matrix``; return the result document."""
    cells = []
    for app, protocol, n_procs, scale in matrix:
        cell = run_cell(app, protocol, n_procs, scale, repeat=repeat)
        cells.append(cell)
        if verbose:
            print(
                f"  {app:<10} {protocol:<8} np={n_procs:<3} "
                f"events={cell['events']:>9} wall={cell['wall_s']:.4f}s "
                f"ev/s={cell['events_per_sec']:>11.0f}",
                flush=True,
            )
    return _document(cells, repeat)


# -- sweep-orchestration suite ------------------------------------------
#
# Cells that measure the *sweep engine* (worker start/reuse, scheduling,
# result-cache tiers) in specs/sec rather than the simulator core in
# events/sec.  They share the cell schema -- ``events`` counts specs,
# the unit of work -- under ``backend: "sweep"`` so the identity used
# by ``--check`` can never collide with a simulator cell.

#: number of workers the sweep suite fans out to.
SWEEP_BENCH_JOBS = 4


def _sweep_specs_cold16() -> list:
    """16 small uncached cells: 8 protocol combos x 2 machine sizes."""
    from repro.sweep import RunSpec

    protos = ("BASIC", "P", "CW", "M", "P+CW", "P+M", "CW+M", "P+CW+M")
    return [
        RunSpec.for_run("mp3d", protocol=p, n_procs=np, scale=0.05)
        for np in (4, 8) for p in protos
    ]


def _sweep_specs_cachedmix() -> list:
    """32 cells mixing protocols and seeds (the repeat-heavy shape)."""
    from repro.sweep import RunSpec

    protos = ("BASIC", "P", "CW", "M", "P+CW", "P+M", "CW+M", "P+CW+M")
    return [
        RunSpec.for_run("mp3d", protocol=p, n_procs=4, scale=0.05, seed=s)
        for s in (12345, 23456, 34567, 45678) for p in protos
    ]


def run_sweep_cell(
    name: str, specs: list, repeat: int = 3, *, jobs: int = 1,
    cold: bool = True, reopen: bool = False,
) -> dict:
    """Time ``SweepEngine.run`` over ``specs``; report best specs/sec.

    ``cold=True`` starts every repeat from an empty result cache (the
    timed region simulates every cell); ``cold=False`` prepopulates the
    cache once per repeat outside the timed region, so the timed region
    measures pure result-serving throughput (the drivers' hot tier).
    ``reopen=True`` (with ``cold=False``) serves the prepopulated
    directory through a fresh engine, a fresh ``ResultCache`` and fresh
    spec objects instead: the hot tier starts empty and no key is
    memoized, so every timed hit computes its key, reads a file and
    decodes its stats -- a driver's first pass over a filled cache.
    Each repeat uses a fresh cache directory; the process-wide worker
    executor (``repro.sweep.pool``), by design, stays warm across
    repeats -- that amortization is exactly what the suite exists to
    measure.
    """
    import dataclasses
    import shutil
    import tempfile

    from repro.sweep import HOT_ENTRIES, ResultCache, SweepEngine

    def make_engine(root: str) -> SweepEngine:
        return SweepEngine(
            max_workers=jobs,
            cache=ResultCache(root, hot_entries=HOT_ENTRIES),
        )

    best = None
    for _ in range(max(1, repeat)):
        tmp = tempfile.mkdtemp(prefix="repro-bench-sweep-")
        try:
            engine = make_engine(tmp)
            timed = specs
            if not cold:
                engine.run(specs)
                if reopen:
                    engine = make_engine(tmp)
                    timed = [dataclasses.replace(s) for s in specs]
            t0 = time.perf_counter()
            engine.run(timed)
            wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if best is None or wall < best:
            best = wall
    n = len(specs)
    return {
        "app": name,
        "protocol": "-",
        "n_procs": jobs,
        "scale": 1.0,
        "backend": "sweep",
        "events": n,
        **_rate(n, best),
        "execution_time": 0,
    }


def run_sweep_suite(repeat: int = 3, verbose: bool = False) -> dict:
    """Run the sweep-orchestration cells; return a result document.

    The cells run the drivers' configuration (the process-wide worker
    executor, hot tier, write-through cache).  The committed baseline was captured
    with the legacy per-batch pool and no hot tier, so ``--check``
    against it measures the orchestration overhaul itself.
    """
    rows = (
        ("cold16", _sweep_specs_cold16(), True, False),
        ("cachedmix", _sweep_specs_cachedmix(), False, False),
        # the cachedmix cells read back through an empty hot tier: the
        # disk read path (key, file read, JSON parse, stats decode)
        ("diskmix", _sweep_specs_cachedmix(), False, True),
    )
    cells = []
    for name, specs, cold, reopen in rows:
        cell = run_sweep_cell(
            name, specs, repeat, jobs=SWEEP_BENCH_JOBS, cold=cold,
            reopen=reopen,
        )
        cells.append(cell)
        if verbose:
            print(
                f"  {name:<10} {'-':<8} jobs={SWEEP_BENCH_JOBS:<2} "
                f"specs={cell['events']:>3} wall={cell['wall_s']:.4f}s "
                f"specs/s={cell['events_per_sec']:>8.1f}",
                flush=True,
            )
    from repro.sweep import shutdown_pool

    shutdown_pool()
    return _document(cells, repeat)


def speedups(current: dict, baseline: dict) -> list:
    """Per-cell throughput ratios current/baseline for matched cells."""
    base_by_key = {cell_key(c): c for c in baseline.get("cells", [])}
    out = []
    for cell in current.get("cells", []):
        base = base_by_key.get(cell_key(cell))
        if base is None or base["events_per_sec"] <= 0:
            continue
        out.append((
            cell_key(cell),
            round(cell["events_per_sec"] / base["events_per_sec"], 2),
        ))
    return out


def cell_key(cell: dict) -> tuple:
    """Identity of a cell, for matching across result documents.

    Includes ``backend`` (``"event"`` when absent, which is what every
    v1 document meant), so sweep-suite cells never match simulator
    cells.
    """
    return (cell["app"], cell["protocol"], cell["n_procs"], cell["scale"],
            cell.get("backend", "event"))


def compare(current: dict, baseline: dict, threshold: float = 2.0) -> list:
    """Cells of ``current`` slower than ``baseline`` by > ``threshold``.

    Returns ``(key, current_evps, baseline_evps, slowdown)`` tuples;
    an empty list means no cell regressed.  Cells present in only one
    document never count as regressions (the matrix may grow between
    revisions); :func:`unmatched` lists them so ``--check`` can warn.
    """
    base_by_key = {cell_key(c): c for c in baseline.get("cells", [])}
    regressions = []
    for cell in current.get("cells", []):
        base = base_by_key.get(cell_key(cell))
        if base is None:
            continue
        cur_evps = cell["events_per_sec"]
        base_evps = base["events_per_sec"]
        if cur_evps <= 0 or base_evps <= 0:
            continue
        slowdown = base_evps / cur_evps
        if slowdown > threshold:
            regressions.append(
                (cell_key(cell), cur_evps, base_evps, round(slowdown, 2))
            )
    return regressions


def unmatched(current: dict, baseline: dict) -> tuple[list, list]:
    """Cell keys present in only one of the two result documents.

    Returns ``(only_current, only_baseline)``; either list being
    non-empty means the regression check silently skipped those cells,
    which ``--check`` surfaces as warnings.
    """
    cur_keys = [cell_key(c) for c in current.get("cells", [])]
    base_keys = [cell_key(c) for c in baseline.get("cells", [])]
    cur_set, base_set = set(cur_keys), set(base_keys)
    return ([k for k in cur_keys if k not in base_set],
            [k for k in base_keys if k not in cur_set])


def write_result(result: dict, out: Path) -> None:
    """Write a result document as stable, diff-friendly JSON."""
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def load_result(path: Path) -> dict:
    """Load a result document, checking the schema version."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    return doc


def add_bench_args(parser) -> None:
    """Register the harness options on ``parser`` (shared with the CLI)."""
    parser.add_argument(
        "--full", action="store_true",
        help="run the full 5x8 paper matrix instead of the quick one",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="runs per cell; wall time is the minimum (default 3)",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="output JSON path (default BENCH_<rev>.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare against a baseline JSON; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="allowed slowdown factor per cell for --check (default 2)",
    )
    parser.add_argument(
        "--suite", choices=("cells", "sweep"), default="cells",
        help="'cells' times the simulator core (events/sec); 'sweep' "
             "times the sweep engine itself in specs/sec (default cells)",
    )


def run_bench(args) -> int:
    """Run the harness from a parsed argument namespace."""
    suite = getattr(args, "suite", "cells")
    if suite == "sweep":
        print(f"running sweep suite (min of {args.repeat} runs; "
              f"python {platform.python_version()})")
        result = run_sweep_suite(repeat=args.repeat, verbose=True)
        unit = "specs"
    else:
        matrix = FULL_MATRIX if args.full else QUICK_MATRIX
        name = "full" if args.full else "quick"
        print(f"running {name} matrix ({len(matrix)} cells, "
              f"min of {args.repeat} runs; "
              f"python {platform.python_version()})")
        result = run_matrix(matrix, repeat=args.repeat, verbose=True)
        unit = "events"
    totals = result["totals"]
    print(f"TOTAL {unit}={totals['events']} wall={totals['wall_s']:.4f}s "
          f"{unit[:-1]}s/s={totals['events_per_sec']:.0f}")

    out = Path(args.out) if args.out else Path(
        f"BENCH_{result['revision']}.json"
    )
    write_result(result, out)
    print(f"wrote {out}")

    if args.check:
        baseline = load_result(Path(args.check))
        only_cur, only_base = unmatched(result, baseline)
        for key in only_cur:
            print(f"WARNING: {key} has no baseline cell; not checked")
        for key in only_base:
            print(f"WARNING: {key} is in the baseline only; not checked")
        regressions = compare(result, baseline, threshold=args.threshold)
        if regressions:
            print(f"REGRESSION vs {args.check} (threshold {args.threshold}x):")
            for key, cur, base, slowdown in regressions:
                print(f"  {key}: {base:.0f} -> {cur:.0f} {unit}/s "
                      f"({slowdown}x slower)")
            return 1
        for key, ratio in speedups(result, baseline):
            print(f"  speedup {key}: {ratio}x vs baseline")
        print(f"no regression vs {args.check} "
              f"(threshold {args.threshold}x, "
              f"baseline rev {baseline['revision']})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for standalone use (``python -m repro.bench``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench", description="benchmark regression harness"
    )
    add_bench_args(parser)
    return run_bench(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
