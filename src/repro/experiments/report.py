"""Full experiment report: regenerate everything into EXPERIMENTS.md.

Runs every table and figure at full scale, renders the results and a
paper-vs-measured comparison for the headline claims, and writes the
whole report to ``EXPERIMENTS.md``.

Run:  python -m repro.experiments.report [--scale 1.0] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import (
    figure2,
    figure3,
    figure4,
    sensitivity,
    table1,
    table2,
    table3,
)
from repro.experiments.runner import (
    DEFAULT_SEED,
    SweepEngine,
    add_sweep_args,
    engine_from_args,
    print_sweep_summary,
    scale_arg,
)

#: the paper's headline claims, checked against the measured data.
#: each entry: (claim text, check function over the collected data)
def _claims(d2, t2, d3, t3, d4):
    def rel(app, proto):
        return d2[app][proto].execution_time / d2[app]["BASIC"].execution_time

    def sc_rel(app, proto):
        sc = d3[app]["sc"]
        return sc[proto].execution_time / sc["BASIC"].execution_time

    out = []

    out.append((
        "P and CW are the most successful single extensions under RC",
        all(
            min(rel(a, "P"), rel(a, "CW")) <= min(rel(a, "M"), 1.0) + 0.02
            for a in d2
        ),
        "min(P,CW) vs M per app: " + ", ".join(
            f"{a}:{min(rel(a,'P'), rel(a,'CW')):.2f}/{rel(a,'M'):.2f}" for a in d2
        ),
    ))
    out.append((
        "P+CW gains are additive; best RC combination for most applications",
        sum(
            rel(a, "P+CW") <= min(rel(a, "P"), rel(a, "CW")) + 0.02 for a in d2
        ) >= 4,
        "P+CW rel times: " + ", ".join(f"{a}:{rel(a,'P+CW'):.2f}" for a in d2),
    ))
    out.append((
        "CW+M wipes out CW's gain for migratory applications (MP3D)",
        rel("mp3d", "CW+M") > rel("mp3d", "CW") + 0.04,
        f"mp3d CW {rel('mp3d','CW'):.2f} vs CW+M {rel('mp3d','CW+M'):.2f}",
    ))
    out.append((
        "P cuts the cold miss rate of the direct solvers (LU, Cholesky) ~4x",
        all(t2[a]["P"][0] < t2[a]["BASIC"][0] / 2.5 for a in ("lu", "cholesky")),
        "cold BASIC->P: " + ", ".join(
            f"{a}:{t2[a]['BASIC'][0]:.2f}->{t2[a]['P'][0]:.2f}"
            for a in ("lu", "cholesky")
        ),
    ))
    out.append((
        "P+CW inherits P's cold rate and CW's coherence rate (Table 2)",
        all(
            abs(t2[a]["P+CW"][0] - t2[a]["P"][0]) <= max(0.5, 0.3 * t2[a]["P"][0])
            for a in t2
        ),
        "|P+CW-P| cold per app: " + ", ".join(
            f"{a}:{abs(t2[a]['P+CW'][0]-t2[a]['P'][0]):.2f}" for a in t2
        ),
    ))
    out.append((
        "M-SC cuts MP3D's execution time strongly (paper: up to 39 %)",
        sc_rel("mp3d", "M") < 0.75,
        f"mp3d M-SC rel {sc_rel('mp3d','M'):.2f}",
    ))
    out.append((
        "P+M is additive under SC (paper: MP3D 46 %, Cholesky 55 %)",
        sc_rel("mp3d", "P+M") < sc_rel("mp3d", "M")
        and sc_rel("cholesky", "P+M") < sc_rel("cholesky", "M"),
        f"mp3d P+M-SC {sc_rel('mp3d','P+M'):.2f}, "
        f"cholesky P+M-SC {sc_rel('cholesky','P+M'):.2f}",
    ))
    out.append((
        "P+M under SC outperforms BASIC under RC for some applications",
        any(
            d3[a]["sc"]["P+M"].execution_time < d3[a]["basic_rc"] for a in d3
        ),
        "P+M-SC vs BASIC-RC: " + ", ".join(
            f"{a}:{d3[a]['sc']['P+M'].execution_time / d3[a]['basic_rc']:.2f}"
            for a in d3
        ),
    ))
    out.append((
        "M reduces network traffic for migratory applications (Figure 4)",
        all(d4[a]["M"] < 100 for a in ("mp3d", "cholesky", "water")),
        "M traffic: " + ", ".join(
            f"{a}:{d4[a]['M']:.0f}%" for a in ("mp3d", "cholesky", "water")
        ),
    ))
    out.append((
        "P+M is less traffic-hungry than P+CW for migratory apps (§5.3)",
        d4["mp3d"]["P+M"] < d4["mp3d"]["P+CW"],
        f"mp3d P+M {d4['mp3d']['P+M']:.0f}% vs P+CW {d4['mp3d']['P+CW']:.0f}%",
    ))
    out.append((
        "P+M's mesh gains are insensitive to link width (Table 3)",
        all(
            abs(t3["P+M"][a][16] - t3["P+M"][a][64]) < 0.15
            for a in ("mp3d", "cholesky")
        ),
        "P+M 64b vs 16b: " + ", ".join(
            f"{a}:{t3['P+M'][a][64]:.2f}->{t3['P+M'][a][16]:.2f}"
            for a in ("mp3d", "cholesky")
        ),
    ))
    out.append((
        "P+CW loses ground as links narrow (Table 3)",
        sum(
            t3["P+CW"][a][16] > t3["P+CW"][a][64] - 0.02 for a in t3["P+CW"]
        ) >= 3,
        "P+CW 64b->16b: " + ", ".join(
            f"{a}:{t3['P+CW'][a][64]:.2f}->{t3['P+CW'][a][16]:.2f}"
            for a in t3["P+CW"]
        ),
    ))
    return out


HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro.experiments.report`` (workload scale
{scale}).  All numbers are from this repository's simulator; the
"paper" column quotes the ISCA 1994 text.  Absolute miss rates run a
few times higher than the paper's because the synthetic workloads are
far shorter than the SPLASH originals (fewer references per block);
the comparisons below are therefore about *shape* -- directions,
orderings and approximate factors -- as set out in DESIGN.md.

Total generation time: {minutes:.1f} min.

## Headline claims

| status | claim | measured |
|---|---|---|
{claims}

"""


def generate(scale: float = 1.0, engine: SweepEngine | None = None,
             seed: int = DEFAULT_SEED) -> str:
    """Run every experiment and render the full report.

    One ``engine`` drives every sub-experiment, so ``--jobs`` fans the
    whole matrix out and the cache memoizes all of it at once.
    """
    t0 = time.time()
    d2 = figure2.run(scale=scale, engine=engine, seed=seed)
    t2 = table2.run(scale=scale, engine=engine, seed=seed)
    d3 = figure3.run(scale=scale, engine=engine, seed=seed)
    t3 = table3.run(scale=scale, engine=engine, seed=seed)
    d4 = figure4.run(scale=scale, engine=engine, seed=seed)
    buf = sensitivity.run_buffers(scale=scale, engine=engine, seed=seed)
    slc = sensitivity.run_limited_slc(scale=scale, engine=engine, seed=seed)
    t1 = table1.run()

    claim_rows = []
    for text, ok, measured in _claims(d2, t2, d3, t3, d4):
        mark = "PASS" if ok else "DIVERGES"
        claim_rows.append(f"| {mark} | {text} | {measured} |")

    sections = [
        HEADER.format(
            scale=scale,
            minutes=(time.time() - t0) / 60,
            claims="\n".join(claim_rows),
        ),
        "## Table 1\n\n```\n" + table1.render(t1) + "\n```\n",
        "## Figure 2\n\n```\n" + figure2.render(d2) + "\n```\n",
        "## Table 2\n\n```\n" + table2.render(t2) + "\n```\n",
        "## Figure 3\n\n```\n" + figure3.render(d3) + "\n```\n",
        "## Table 3\n\n```\n" + table3.render(t3) + "\n```\n",
        "## Figure 4\n\n```\n" + figure4.render(d4) + "\n```\n",
        "## Sensitivity (§5.4)\n\n```\n"
        + sensitivity.render_buffers(buf)
        + "\n\n"
        + sensitivity.render_limited_slc(slc)
        + "\n```\n",
    ]
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> None:
    """CLI entry: regenerate EXPERIMENTS.md."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    add_sweep_args(parser)
    args = parser.parse_args(argv)
    engine = engine_from_args(args)
    report = generate(scale=args.scale, engine=engine, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(report)
    print(f"wrote {args.out}")
    print_sweep_summary(engine)


if __name__ == "__main__":
    main()
