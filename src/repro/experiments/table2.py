"""Table 2: cold and coherence miss-rate components (percent).

Reported for BASIC, P, CW and P+CW under release consistency.  The
paper's composition property is the point of this table: P+CW's cold
miss rate equals P's, and its coherence miss rate equals CW's -- the
two extensions remove *different* misses, which is why their gains add
up in Figure 2.
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

PROTOCOLS = ("BASIC", "P", "CW", "P+CW")


def run(scale: float = 1.0, apps: tuple[str, ...] = APP_NAMES,
        engine: SweepEngine | None = None,
        seed: int = DEFAULT_SEED) -> dict:
    """Measure miss-rate components; {app: {proto: (cold, coh)}}."""
    specs = [
        RunSpec.for_run(app, protocol=proto, scale=scale, seed=seed)
        for app in apps
        for proto in PROTOCOLS
    ]
    results = iter(execute(specs, engine))
    out: dict = {}
    for app in apps:
        out[app] = {}
        for proto in PROTOCOLS:
            res = next(results)
            out[app][proto] = (
                res.stats.miss_rate("cold"),
                res.stats.miss_rate("coherence"),
            )
    return out


def render(data: dict) -> str:
    """Text table in the paper's layout (cold | coh per protocol)."""
    headers = ["Appl."]
    for proto in PROTOCOLS:
        headers += [f"{proto} cold", f"{proto} coh"]
    rows = []
    for app, per_proto in data.items():
        row: list[object] = [app]
        for proto in PROTOCOLS:
            cold, coh = per_proto[proto]
            row += [cold, coh]
        rows.append(row)
    return render_table(
        headers,
        rows,
        title="Table 2: cold and coherence miss rates (% of shared refs)",
    )


def composition_errors(data: dict) -> dict[str, tuple[float, float]]:
    """|P+CW cold - P cold| and |P+CW coh - CW coh| per application."""
    out = {}
    for app, per in data.items():
        out[app] = (
            abs(per["P+CW"][0] - per["P"][0]),
            abs(per["P+CW"][1] - per["CW"][1]),
        )
    return out


def csv_rows(data: dict) -> tuple[tuple[str, ...], list[tuple]]:
    """(headers, rows) for CSV export."""
    headers = ("app", "protocol", "cold_pct", "coherence_pct")
    rows = [
        (app, proto, cold, coh)
        for app, per in data.items()
        for proto, (cold, coh) in per.items()
    ]
    return headers, rows


def main(argv: list[str] | None = None) -> None:
    """CLI entry: ``python -m repro.experiments.table2 [--scale S]``."""
    parser = argparse.ArgumentParser(description=__doc__)
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
    print()
    errs = composition_errors(data)
    print("composition check (|P+CW - P| cold, |P+CW - CW| coherence):")
    for app, (dc, dh) in errs.items():
        print(f"  {app:10s} {dc:.2f}  {dh:.2f}")
    print_sweep_summary(engine)


if __name__ == "__main__":
    main()
