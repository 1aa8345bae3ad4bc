"""Figure 3: execution times under sequential consistency.

B-SC, P, M-SC and P+M relative to B-SC, decomposed into busy, read,
write, acquire and release stall; the dashed line of the paper --
BASIC under release consistency -- is reported alongside.  Headlines:

* M-SC attacks the write and acquire stalls of migratory applications
  (up to ~39 % execution-time reduction for MP3D),
* P attacks the read stall (up to ~26 % for Cholesky) at the price of
  a slightly increased write stall,
* P+M is additive (MP3D ~46 %, Cholesky ~55 %) and outperforms BASIC
  under RC for some applications.
"""

from __future__ import annotations

import argparse

from repro.config import SC_PROTOCOLS, Consistency
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
        engine: SweepEngine | None = None,
        seed: int = DEFAULT_SEED) -> dict:
    """{app: {"sc": {proto: result}, "basic_rc": exec_time}}."""
    specs = []
    for app in apps:
        specs += [
            RunSpec.for_run(app, protocol=proto, consistency=Consistency.SC,
                            scale=scale, seed=seed)
            for proto in SC_PROTOCOLS
        ]
        specs.append(RunSpec.for_run(app, protocol="BASIC",
                                     consistency=Consistency.RC,
                                     scale=scale, seed=seed))
    results = iter(execute(specs, engine))
    out: dict = {}
    for app in apps:
        sc = {proto: next(results) for proto in SC_PROTOCOLS}
        rc = next(results)
        out[app] = {"sc": sc, "basic_rc": rc.execution_time}
    return out


_SC_LABEL = {"BASIC": "B-SC", "P": "P", "M": "M-SC", "P+M": "P+M"}


def render(data: dict) -> str:
    """One stacked-bar chart per application plus the RC reference."""
    chunks = ["Figure 3: execution time under sequential consistency"]
    for app, entry in data.items():
        results = entry["sc"]
        base = results["BASIC"].execution_time
        bars = [
            (_SC_LABEL[proto], decomposition(res.stats))
            for proto, res in results.items()
        ]
        chunks.append("")
        chunks.append(render_stacked_bars(bars, reference=base, title=f"[{app}]"))
        rows = [
            (_SC_LABEL[proto], res.execution_time / base)
            for proto, res in results.items()
        ]
        rows.append(("BASIC-RC (dashed)", entry["basic_rc"] / base))
        chunks.append(render_table(("design", "relative exec time"), rows))
    return "\n".join(chunks)


def main(argv: list[str] | None = None, prog: str | None = None) -> None:
    """CLI entry: ``python -m repro.experiments.figure3 [--scale S]``."""
    parser = argparse.ArgumentParser(prog=prog, description=__doc__)
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    add_sweep_args(parser)
    args = parser.parse_args(argv)
    engine = engine_from_args(args)
    print(render(run(scale=args.scale, engine=engine, seed=args.seed)))
    print_sweep_summary(engine)


if __name__ == "__main__":
    main()
