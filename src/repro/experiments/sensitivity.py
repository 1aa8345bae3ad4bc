"""§5.4: sensitivity to buffer sizes and to a limited SLC.

Two studies:

* **buffers** -- rerun the §5.1 experiments with 4-entry FLWB and SLWB
  (instead of 8/16).  The paper finds that only BASIC and P suffer,
  and only through pending *write* requests; CW, M and combinations
  including them are unaffected (P+CW and P+M "need less complex
  SLWBs than BASIC").
* **slc** -- rerun with a limited (16 KB) direct-mapped SLC.  The
  combinations that win with infinite caches still win; P gets even
  better because it also removes replacement misses.
"""

from __future__ import annotations

import argparse

from repro.experiments.formats import render_table
from repro.experiments.runner import (
    DEFAULT_SEED,
    RunSpec,
    SweepEngine,
    add_sweep_args,
    engine_from_args,
    execute,
    limited_slc_cache,
    print_sweep_summary,
    scale_arg,
    small_buffer_cache,
)
from repro.workloads import APP_NAMES

PROTOCOLS = ("BASIC", "P", "CW", "M", "P+CW", "P+M")


def run_buffers(scale: float = 1.0, apps: tuple[str, ...] = APP_NAMES,
                engine: SweepEngine | None = None,
                seed: int = DEFAULT_SEED) -> dict:
    """{app: {proto: slowdown with 4-entry buffers}}."""
    specs = []
    for app in apps:
        for proto in PROTOCOLS:
            specs.append(RunSpec.for_run(app, protocol=proto, scale=scale,
                                         seed=seed))
            specs.append(RunSpec.for_run(app, protocol=proto, scale=scale,
                                         seed=seed,
                                         cache=small_buffer_cache()))
    results = iter(execute(specs, engine))
    out: dict = {}
    for app in apps:
        out[app] = {}
        for proto in PROTOCOLS:
            full = next(results)
            small = next(results)
            out[app][proto] = small.execution_time / full.execution_time
    return out


def run_limited_slc(
    scale: float = 1.0,
    apps: tuple[str, ...] = APP_NAMES,
    slc_bytes: int = 16 * 1024,
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
) -> dict:
    """{app: {proto: (relative exec vs BASIC, replacement miss %)}}."""
    specs = [
        RunSpec.for_run(app, protocol=proto, scale=scale, seed=seed,
                        cache=limited_slc_cache(slc_bytes))
        for app in apps
        for proto in PROTOCOLS
    ]
    results = iter(execute(specs, engine))
    out: dict = {}
    for app in apps:
        out[app] = {}
        base = None
        for proto in PROTOCOLS:
            res = next(results)
            if base is None:
                base = res.execution_time
            out[app][proto] = (
                res.execution_time / base,
                res.stats.miss_rate("replacement"),
            )
    return out


def render_buffers(data: dict) -> str:
    """Slowdown table: 4-entry buffers vs paper-default buffers."""
    apps = list(data)
    rows = []
    for proto in PROTOCOLS:
        row: list[object] = [proto]
        row += [data[app][proto] for app in apps]
        rows.append(row)
    return render_table(
        ["Protocol"] + apps,
        rows,
        title="S5.4a: slowdown with 4-entry FLWB/SLWB (1.00 = unaffected)",
    )


def render_limited_slc(data: dict) -> str:
    """Relative execution times with a bounded 16-KB SLC."""
    apps = list(data)
    rows = []
    for proto in PROTOCOLS:
        row: list[object] = [proto]
        row += [data[app][proto][0] for app in apps]
        rows.append(row)
    repl: list[object] = ["repl-miss % (BASIC)"]
    repl += [data[app]["BASIC"][1] for app in apps]
    rows.append(repl)
    return render_table(
        ["Protocol"] + apps,
        rows,
        title="S5.4b: relative execution time with a 16-KB SLC",
    )


def main(argv: list[str] | None = None) -> None:
    """CLI entry: ``python -m repro.experiments.sensitivity [--scale S]``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    parser.add_argument(
        "--study", choices=("buffers", "slc", "both"), default="both"
    )
    add_sweep_args(parser)
    args = parser.parse_args(argv)
    engine = engine_from_args(args)
    if args.study in ("buffers", "both"):
        print(render_buffers(run_buffers(scale=args.scale, engine=engine,
                                         seed=args.seed)))
        print()
    if args.study in ("slc", "both"):
        print(render_limited_slc(run_limited_slc(scale=args.scale,
                                                 engine=engine,
                                                 seed=args.seed)))
    print_sweep_summary(engine)


if __name__ == "__main__":
    main()
