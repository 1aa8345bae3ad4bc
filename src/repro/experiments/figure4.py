"""Figure 4: total network traffic normalized to BASIC.

Bytes crossing the network under BASIC, P, CW, M, P+CW and P+M with
release consistency.  The paper's shape: the prefetching protocols add
traffic, the migratory optimization *reduces* it below BASIC for
migratory applications (freeing bandwidth that P can spend), and P+CW
is the hungriest combination -- which is why it is the one hurt by
narrow mesh links in Table 3.
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
    print_sweep_summary,
    scale_arg,
)
from repro.workloads import APP_NAMES

PROTOCOLS = ("BASIC", "P", "CW", "M", "P+CW", "P+M")


def run(scale: float = 1.0, apps: tuple[str, ...] = APP_NAMES,
        engine: SweepEngine | None = None,
        seed: int = DEFAULT_SEED) -> dict:
    """{app: {proto: normalized traffic}} (BASIC == 100)."""
    specs = [
        RunSpec.for_run(app, protocol=proto, scale=scale, seed=seed)
        for app in apps
        for proto in PROTOCOLS
    ]
    results = iter(execute(specs, engine))
    out: dict = {}
    for app in apps:
        out[app] = {}
        base_bytes = None
        for proto in PROTOCOLS:
            res = next(results)
            if base_bytes is None:
                base_bytes = res.stats.network.bytes or 1
            out[app][proto] = 100.0 * res.stats.network.bytes / base_bytes
    return out


def render(data: dict) -> str:
    """Traffic table (percent of BASIC) in the figure's series order."""
    apps = list(data)
    rows = []
    for proto in PROTOCOLS:
        row: list[object] = [proto]
        row += [data[app][proto] for app in apps]
        rows.append(row)
    return render_table(
        ["Protocol"] + apps,
        rows,
        title="Figure 4: total network traffic normalized to BASIC (=100)",
    )


def csv_rows(data: dict) -> tuple[tuple[str, ...], list[tuple]]:
    """(headers, rows) for CSV export."""
    headers = ("app", "protocol", "traffic_pct_of_basic")
    rows = [
        (app, proto, value)
        for app, per in data.items()
        for proto, value in per.items()
    ]
    return headers, rows


def main(argv: list[str] | None = None, prog: str | None = None) -> None:
    """CLI entry: ``python -m repro.experiments.figure4 [--scale S]``."""
    parser = argparse.ArgumentParser(prog=prog, description=__doc__)
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    parser.add_argument("--csv", help="also write the rows to this CSV file")
    add_sweep_args(parser)
    args = parser.parse_args(argv)
    engine = engine_from_args(args)
    data = run(scale=args.scale, engine=engine, seed=args.seed)
    print(render(data))
    if args.csv:
        from repro.experiments.formats import write_csv

        headers, rows = csv_rows(data)
        write_csv(args.csv, headers, rows)
    print_sweep_summary(engine)


if __name__ == "__main__":
    main()
