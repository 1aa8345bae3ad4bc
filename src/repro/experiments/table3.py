"""Table 3: impact of network contention on P+CW and P+M.

The execution-time ratio (ETR) of P+CW and P+M against BASIC, where
all three run on the *same* wormhole-routed mesh, for link widths of
64, 32 and 16 bits.  The paper's observation: P+CW's extra traffic
makes its gains shrink (or vanish) as links narrow, while P+M -- whose
migratory optimization *frees* bandwidth for the prefetcher -- is
nearly insensitive to link width.
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
    mesh_network,
    print_sweep_summary,
    scale_arg,
)
from repro.workloads import APP_NAMES

LINK_WIDTHS = (64, 32, 16)
PROTOCOLS = ("P+CW", "P+M")


def run(scale: float = 1.0, apps: tuple[str, ...] = APP_NAMES,
        engine: SweepEngine | None = None,
        seed: int = DEFAULT_SEED) -> dict:
    """{proto: {app: {width: ETR}}} plus link utilization data."""
    specs = [
        RunSpec.for_run(app, protocol=proto, network=mesh_network(width),
                        scale=scale, seed=seed)
        for app in apps
        for width in LINK_WIDTHS
        for proto in ("BASIC", *PROTOCOLS)
    ]
    results = iter(execute(specs, engine))
    out: dict = {proto: {app: {} for app in apps} for proto in PROTOCOLS}
    out["utilization"] = {app: {} for app in apps}
    for app in apps:
        for width in LINK_WIDTHS:
            base = next(results)
            out["utilization"][app][width] = (
                base.stats.network.peak_link_utilization
            )
            for proto in PROTOCOLS:
                res = next(results)
                out[proto][app][width] = res.execution_time / base.execution_time
    return out


def render(data: dict) -> str:
    """The paper's two-row-group table (ETR per link width)."""
    apps = list(data[PROTOCOLS[0]])
    chunks = []
    for proto in PROTOCOLS:
        rows = []
        for width in LINK_WIDTHS:
            row: list[object] = [f"{width}-bit links"]
            row += [data[proto][app][width] for app in apps]
            rows.append(row)
        chunks.append(
            render_table(
                ["Links"] + apps,
                rows,
                title=f"Table 3 ({proto}): execution time / BASIC on the same mesh",
            )
        )
        chunks.append("")
    util_rows = []
    for width in LINK_WIDTHS:
        row: list[object] = [f"{width}-bit links"]
        row += [data["utilization"][app][width] for app in apps]
        util_rows.append(row)
    chunks.append(
        render_table(
            ["BASIC max link util"] + apps,
            util_rows,
            title="(saturation indicator: peak link utilization under BASIC)",
        )
    )
    return "\n".join(chunks)


def main(argv: list[str] | None = None) -> None:
    """CLI entry: ``python -m repro.experiments.table3 [--scale S]``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    add_sweep_args(parser)
    args = parser.parse_args(argv)
    engine = engine_from_args(args)
    print(render(run(scale=args.scale, engine=engine, seed=args.seed)))
    print_sweep_summary(engine)


if __name__ == "__main__":
    main()
