"""Machine-size scaling study (extension beyond the paper).

The paper evaluates a fixed 16-processor 4x4 mesh.  This driver varies
the processor count -- any count works now that the mesh factors into
the squarest W x H rectangle (4 -> 2x2, 64 -> 8x8, 256 -> 16x16) --
and the directory organization, and reports, per protocol:

* **speedup vs nodes** -- execution time at each size relative to the
  same protocol at the smallest size (how far the machine actually
  scales), plus execution time relative to BASIC at each size (whether
  the extension gains survive scale),
* **directory storage cost** -- bits per memory block of each
  organization at each size, the reason full-map directories stop at
  small machines and Dir_i-B / coarse vectors exist.

Two effects the protocol extensions interact with:

* more processors -> more sharers per block -> longer invalidation
  chains (BASIC's write cost grows) and more update fan-out (CW's
  traffic grows),
* migratory chains visit more processors -> M's detection pays off
  once per block regardless, so its relative gain is stable.

Inexact directory organizations add a third effect: Dir_i-B overflow
broadcasts and coarse-vector region fan-out turn each invalidation
into up-to-N messages, which the mesh must carry.

Run:  python -m repro.experiments.scaling [--scale S] [--app mp3d]
          [--sizes 4,16,64,256] [--directories full_map,limited:4]
"""

from __future__ import annotations

import argparse

from repro.config import DirectoryConfig
from repro.core.directory import make_directory_org
from repro.experiments.formats import render_table
from repro.experiments.runner import (
    DEFAULT_SEED,
    RunSpec,
    SweepEngine,
    add_sweep_args,
    engine_from_args,
    execute,
    print_sweep_summary,
)

#: any count factors into a W x H mesh; the defaults are the paper's
#: machine plus the 1/4x and 4x/16x points of the scalability study.
MACHINE_SIZES = (4, 16, 64, 256)
PROTOCOLS = ("BASIC", "P", "CW", "M", "P+CW", "P+M")
#: the paper's organization plus one scalable one.
DIRECTORIES = ("full_map", "limited:4")


def run(app: str = "mp3d", scale: float = 1.0,
        sizes: tuple[int, ...] = MACHINE_SIZES,
        directories: tuple[str, ...] = DIRECTORIES,
        protocols: tuple[str, ...] = PROTOCOLS,
        engine: SweepEngine | None = None,
        seed: int = DEFAULT_SEED) -> dict:
    """{org: {n_procs: {proto: (exec_time, rel_to_basic, net_bytes)}}}."""
    specs = [
        RunSpec.for_run(app, protocol=proto, n_procs=n, scale=scale,
                        seed=seed, directory=org)
        for org in directories
        for n in sizes
        for proto in protocols
    ]
    results = iter(execute(specs, engine))
    out: dict = {}
    for org in directories:
        out[org] = {}
        for n in sizes:
            out[org][n] = {}
            base = None
            for proto in protocols:
                stats = next(results).stats
                if base is None:
                    base = stats.execution_time
                out[org][n][proto] = (
                    stats.execution_time,
                    stats.execution_time / base,
                    stats.network.bytes,
                )
    return out


def render(data: dict, app: str = "",
           protocols: tuple[str, ...] = PROTOCOLS) -> str:
    """Speedup-vs-nodes and relative-time tables per organization."""
    blocks = []
    for org, per_size in data.items():
        sizes = list(per_size)
        smallest = sizes[0]
        rows = []
        for proto in protocols:
            row: list[object] = [proto]
            # speedup over the same protocol at the smallest size:
            # > 1.0 means more nodes actually helped.
            row += [
                per_size[smallest][proto][0] / per_size[n][proto][0]
                for n in sizes
            ]
            rows.append(row)
        blocks.append(render_table(
            ["Protocol"] + [f"{n} procs" for n in sizes],
            rows,
            title=f"[{org}] speedup vs {smallest}-proc machine"
                  f"{f' [{app}]' if app else ''}",
        ))
        rows = []
        for proto in protocols:
            row = [proto]
            row += [per_size[n][proto][1] for n in sizes]
            rows.append(row)
        blocks.append(render_table(
            ["Protocol"] + [f"{n} procs" for n in sizes],
            rows,
            title=f"[{org}] execution time relative to BASIC at each size",
        ))
    return "\n\n".join(blocks)


def render_storage(sizes: tuple[int, ...],
                   directories: tuple[str, ...]) -> str:
    """Directory storage cost (bits per memory block) per size."""
    rows = []
    for name in directories:
        org_cfg = DirectoryConfig.from_name(name)
        row: list[object] = [name]
        for n in sizes:
            org = make_directory_org(org_cfg, n)
            row.append(
                f"{org.bits_per_block()}/{org.bits_per_block(True)}"
            )
        rows.append(row)
    return render_table(
        ["Directory"] + [f"{n} procs" for n in sizes],
        rows,
        title="directory storage cost, bits per block (BASIC / with M)",
    )


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def main(argv: list[str] | None = None) -> None:
    """CLI entry: ``python -m repro.experiments.scaling``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--app", default="mp3d")
    parser.add_argument(
        "--sizes", default=",".join(str(n) for n in MACHINE_SIZES),
        help="comma-separated processor counts (default: %(default)s)",
    )
    parser.add_argument(
        "--directories", default=",".join(DIRECTORIES),
        help="comma-separated directory organizations "
             "(default: %(default)s)",
    )
    add_sweep_args(parser)
    args = parser.parse_args(argv)
    sizes = tuple(int(n) for n in _csv(args.sizes))
    directories = tuple(_csv(args.directories))
    engine = engine_from_args(args)
    print(render(run(app=args.app, scale=args.scale, sizes=sizes,
                     directories=directories, engine=engine,
                     seed=args.seed),
                 app=args.app))
    print()
    print(render_storage(sizes, directories))
    print_sweep_summary(engine)


if __name__ == "__main__":
    main()
