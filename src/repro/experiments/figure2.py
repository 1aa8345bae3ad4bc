"""Figure 2: execution times relative to BASIC under release consistency.

For every application, all eight protocols (BASIC, P, CW, M, P+CW,
P+M, CW+M, P+CW+M) run under RC with the contention-free uniform
network, and the execution time is decomposed into busy, read-stall
and acquire-stall time.  The paper's headline results:

* P and CW are the strongest single extensions,
* P+CW combines additively -- close to a factor-of-two speedup for
  some applications,
* M contributes mainly through the acquire stall (write latency is
  already hidden), and CW+M wipes out CW's gain for migratory apps.
"""

from __future__ import annotations

import argparse

from repro.config import ALL_PROTOCOLS
from repro.experiments.formats import decomposition, render_stacked_bars, render_table
from repro.experiments.runner import (
    DEFAULT_SEED,
    RunSpec,
    SweepEngine,
    add_sweep_args,
    engine_from_args,
    execute,
    print_sweep_summary,
    scale_arg,
)
from repro.workloads import APP_NAMES


def run(scale: float = 1.0, apps: tuple[str, ...] = APP_NAMES,
        protocols: tuple[str, ...] = ALL_PROTOCOLS,
        engine: SweepEngine | None = None,
        seed: int = DEFAULT_SEED) -> dict:
    """Simulate the full protocol matrix; returns {app: {proto: result}}."""
    specs = [
        RunSpec.for_run(app, protocol=proto, scale=scale, seed=seed)
        for app in apps
        for proto in protocols
    ]
    results = iter(execute(specs, engine))
    return {app: {proto: next(results) for proto in protocols} for app in apps}


def render(data: dict) -> str:
    """Text rendering: one stacked-bar chart per application."""
    chunks = ["Figure 2: execution time relative to BASIC (release consistency)"]
    for app, results in data.items():
        base = results["BASIC"].execution_time
        bars = []
        for proto, res in results.items():
            parts = decomposition(res.stats)
            bars.append((proto, parts))
        chunks.append("")
        chunks.append(render_stacked_bars(bars, reference=base, title=f"[{app}]"))
        rows = [
            (proto, res.execution_time / base)
            for proto, res in results.items()
        ]
        chunks.append(render_table(("protocol", "relative exec time"), rows))
    return "\n".join(chunks)


def csv_rows(data: dict) -> tuple[tuple[str, ...], list[tuple]]:
    """(headers, rows) for CSV export of the full decomposition."""
    headers = (
        "app", "protocol", "exec_time", "relative",
        "busy", "read_stall", "write_stall", "acquire_stall",
        "release_stall",
    )
    rows = []
    for app, results in data.items():
        base = results["BASIC"].execution_time
        for proto, res in results.items():
            d = decomposition(res.stats)
            rows.append((
                app, proto, res.execution_time,
                res.execution_time / base,
                d["busy"], d["read"], d["write"], d["acquire"], d["release"],
            ))
    return headers, rows


def main(argv: list[str] | None = None) -> None:
    """CLI entry: ``python -m repro.experiments.figure2 [--scale S]``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    parser.add_argument("--apps", nargs="*", default=list(APP_NAMES))
    parser.add_argument("--csv", help="also write the series to this CSV file")
    add_sweep_args(parser)
    args = parser.parse_args(argv)
    engine = engine_from_args(args)
    data = run(scale=args.scale, apps=tuple(args.apps), engine=engine,
               seed=args.seed)
    print(render(data))
    if args.csv:
        from repro.experiments.formats import write_csv

        headers, rows = csv_rows(data)
        write_csv(args.csv, headers, rows)
        print(f"\nwrote {args.csv}")
    print_sweep_summary(engine)


if __name__ == "__main__":
    main()
