"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``run``         -- simulate one (application, protocol) pair and
  print the execution-time decomposition and miss rates,
* ``compare``     -- run several protocols on one application and
  print a ranking table,
* ``analyze``     -- static sharing-pattern census of a workload,
* ``trace``       -- dump a workload's reference streams to a trace
  file (or simulate from an existing trace file),
* ``bench``       -- run this checkout's end-to-end benchmark,
  ``benchmarks/e2e/run.py``, with the arguments that follow unchanged
  (``repro bench rounds --runs 10``, ``repro bench compare A B``),
* ``experiments`` -- dispatch to the table/figure drivers,
* ``verify``      -- protocol verification: bounded model checking
  (``verify model``), seeded invariant fuzzing (``verify fuzz``) and
  the static extension-metadata lint (``verify registry``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.config import (
    ALL_PROTOCOLS,
    Consistency,
    NetworkConfig,
    NetworkKind,
    SystemConfig,
)
from repro.experiments.formats import render_table
from repro.experiments.runner import add_sweep_args, positive_int_arg, scale_arg
from repro.workloads import ALL_APP_NAMES


def _protocol_arg(args) -> str:
    """The requested protocol combination.

    ``--extensions`` accepts any combination of registered extensions
    ("p,m,cw", "P+M", ...) and takes precedence over ``--protocol``,
    whose choices are limited to the paper's eight combinations.
    """
    return getattr(args, "extensions", None) or args.protocol


def _network_arg(args) -> NetworkConfig | None:
    """The NetworkConfig described by ``--mesh``."""
    if getattr(args, "mesh", None):
        return NetworkConfig(kind=NetworkKind.MESH, link_width_bits=args.mesh)
    return None


def _make_config(args) -> SystemConfig:
    return SystemConfig(
        n_procs=args.procs,
        consistency=Consistency(args.consistency),
        network=_network_arg(args) or NetworkConfig(),
    ).with_protocol(_protocol_arg(args))


def _summary_rows(summary):
    """Render rows from the one true digest (RunSummary.to_dict)."""
    d = summary.to_dict()
    return [
        ("execution time (pclocks)", d["execution_time"]),
        ("busy %", 100 * d["busy_fraction"]),
        ("read stall %", 100 * d["read_stall_fraction"]),
        ("write stall %", 100 * d["write_stall_fraction"]),
        ("acquire stall %", 100 * d["acquire_stall_fraction"]),
        ("release stall %", 100 * d["release_stall_fraction"]),
        ("cold miss %", d["cold_miss_rate"]),
        ("coherence miss %", d["coherence_miss_rate"]),
        ("replacement miss %", d["replacement_miss_rate"]),
        ("network bytes", d["network_bytes"]),
    ]


def cmd_run(args) -> int:
    """Simulate one configuration and print the summary."""
    cfg = _make_config(args)
    if args.trace_file:
        from repro.system import System
        from repro.trace import load_streams

        streams = load_streams(args.trace_file)

        def simulate():
            return System(cfg).run(streams)
    else:
        from repro.sweep import RunSpec, SweepEngine

        spec = RunSpec.for_run(
            args.app,
            protocol=_protocol_arg(args),
            consistency=Consistency(args.consistency),
            network=_network_arg(args),
            n_procs=args.procs,
            scale=args.scale,
        )
        engine = SweepEngine()

        def simulate():
            stats = engine.run_one(spec).stats
            if getattr(args, "verbose", False):
                digest = engine.last_run_stats() or {}
                print(
                    "[run] wall={wall_time:.3f}s sim_time={sim_time:.3f}s "
                    "sim={sim} cache={cache} dedup={dedup} "
                    "hot_hits={hot_hits}".format(**digest),
                    file=sys.stderr, flush=True,
                )
            return stats

    if args.profile or args.profile_out:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        stats = simulate()
        profiler.disable()
    else:
        stats = simulate()
    from repro.api import RunSummary

    summary = RunSummary.from_stats(args.app, cfg, stats)
    title = f"{args.app} / {cfg.protocol.name} / {cfg.consistency.value}"
    print(render_table(
        ("metric", "value"), _summary_rows(summary), title=title
    ))
    if args.profile or args.profile_out:
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print(f"wrote pstats dump to {args.profile_out}")
    return 0


#: the end-to-end benchmark of the checkout ``repro`` is imported from
#: (``src/repro/cli.py`` -> the checkout's root); an installed package
#: has none
BENCH_RUN = Path(__file__).parents[2] / "benchmarks" / "e2e" / "run.py"


def cmd_bench(argv: list[str]) -> int:
    """Run :data:`BENCH_RUN` with ``argv`` unchanged; its exit code."""
    if not BENCH_RUN.is_file():
        print(f"repro bench: {BENCH_RUN} is missing (repro bench needs a "
              "source checkout)", file=sys.stderr)
        return 2
    import subprocess

    return subprocess.run([sys.executable, str(BENCH_RUN), *argv]).returncode


def cmd_compare(args) -> int:
    """Rank protocols on one application (through the sweep engine)."""
    from repro.experiments.runner import engine_from_args, print_sweep_summary
    from repro.sweep import RunSpec

    network = _network_arg(args)
    combos = args.extensions or args.protocols
    specs = [
        RunSpec.for_run(
            args.app,
            protocol=proto,
            consistency=Consistency(args.consistency),
            network=network,
            n_procs=args.procs,
            scale=args.scale,
            seed=args.seed,
        )
        for proto in combos
    ]
    engine = engine_from_args(args)
    results = engine.run(specs)
    base = results[0].execution_time
    rows = [
        (
            res.protocol,
            res.execution_time / base,
            res.stats.miss_rate("cold"),
            res.stats.miss_rate("coherence"),
            res.stats.network.bytes,
        )
        for res in results
    ]
    rows.sort(key=lambda r: r[1])
    print(render_table(
        ("protocol", "rel. time", "cold %", "coh %", "net bytes"),
        rows,
        title=f"{args.app} ({args.consistency}, scale {args.scale})",
    ))
    print_sweep_summary(engine)
    return 0


def cmd_list_extensions(args) -> int:
    """Print the protocol-extension registry."""
    from repro.core.extensions import registered_extensions

    rows = [
        (
            info.name,
            info.order,
            info.description,
            info.config_cls.__name__ if info.config_cls else "-",
        )
        for info in registered_extensions()
    ]
    print(render_table(
        ("name", "order", "description", "config"),
        rows,
        title="registered protocol extensions (pipeline order)",
    ))
    return 0


def cmd_analyze(args) -> int:
    """Sharing-pattern census of a workload."""
    from repro.mem.addrmap import AddressMap
    from repro.stats.sharing import Pattern, analyze
    from repro.workloads import build_workload

    cfg = SystemConfig(n_procs=args.procs)
    streams = build_workload(args.app, cfg, scale=args.scale)
    profile = analyze(streams, AddressMap(n_nodes=cfg.n_procs))
    census = profile.census()
    rows = [
        (
            pattern.value,
            census.get(pattern, 0),
            100 * profile.fraction_of_refs(pattern),
        )
        for pattern in Pattern
    ]
    print(render_table(
        ("pattern", "blocks", "% of refs"),
        rows,
        title=f"sharing census of {args.app}",
    ))
    return 0


def cmd_trace(args) -> int:
    """Dump a workload's reference streams to a trace file."""
    from repro.trace import save_streams
    from repro.workloads import build_workload

    cfg = SystemConfig(n_procs=args.procs)
    streams = build_workload(args.app, cfg, scale=args.scale)
    save_streams(streams, args.out)
    total = sum(len(s) for s in streams)
    print(f"wrote {total} ops for {len(streams)} processors to {args.out}")
    return 0


def _stderr_progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def cmd_verify_model(args) -> int:
    """Bounded model checking: one combo, or the registry matrix."""
    from repro.verify import (
        VerifyConfig,
        check_model,
        matrix_configs,
        verify_matrix,
    )

    progress = _stderr_progress if args.progress else None
    if args.extensions:
        cfg = VerifyConfig(
            n_nodes=args.nodes,
            n_blocks=args.blocks,
            depth=args.depth,
            extensions=args.extensions,
            consistency=Consistency(args.consistency or "RC"),
            max_states=args.max_states,
            symmetry=not args.no_symmetry,
        )
        results = [check_model(cfg, progress=progress)]
        show_coverage = not args.no_coverage
    else:
        kw = {}
        if args.consistency:
            kw["consistencies"] = (Consistency(args.consistency),)
        configs = matrix_configs(
            n_nodes=args.nodes,
            n_blocks=args.blocks,
            depth=args.depth,
            max_states=args.max_states,
            symmetry=not args.no_symmetry,
            **kw,
        )
        results = verify_matrix(configs, progress=progress)
        show_coverage = args.coverage
    for res in results:
        print(res.summary())
        if show_coverage:
            for line in res.coverage.report_lines():
                print(f"  {line}")
    failures = [res for res in results if not res.ok]
    for res in failures:
        print()
        print(res.violation.describe())
    checked = len(results)
    states = sum(res.explored for res in results)
    print(
        f"verify model: {checked} config(s), {states} states, "
        f"{len(failures)} violation(s)"
    )
    return 1 if failures else 0


def cmd_verify_fuzz(args) -> int:
    """Seeded long-run invariant fuzzing with shrinking."""
    from repro.verify import run_fuzz

    result = run_fuzz(
        seed=args.seed,
        trials=args.trials,
        nops=args.ops,
        max_events=args.max_events,
        shrink=not args.no_shrink,
        progress=_stderr_progress,
    )
    if result.ok:
        print(
            f"verify fuzz: {result.trials} trial(s) ok "
            f"(seed {args.seed}, {args.ops} ops/proc)"
        )
        return 0
    for failure in result.failures:
        cfg = failure.config
        print(
            f"trial {failure.trial} FAILED (seed {failure.seed}): "
            f"{failure.error}"
        )
        print(
            f"  config: {cfg.protocol.name} / "
            f"{cfg.consistency.value}, {cfg.n_procs} procs"
        )
        for pid, stream in enumerate(failure.streams):
            if len(stream) > 1:
                print(f"  proc {pid}: {stream}")
    return 1


def cmd_verify_registry(args) -> int:
    """Static lint of the extension registry's metadata."""
    from repro.core.extensions import (
        RegistryError,
        registered_extensions,
        validate_registry,
    )

    try:
        validate_registry()
    except RegistryError as exc:
        print(exc)
        return 1
    infos = registered_extensions()
    rows = [
        (
            info.name,
            info.order,
            ",".join(sorted(info.traits)) or "-",
        )
        for info in infos
    ]
    print(render_table(
        ("name", "order", "traits"),
        rows,
        title=f"registry ok: {len(infos)} extensions, metadata consistent",
    ))
    return 0


def cmd_experiments(args) -> int:
    """Dispatch to a table/figure driver."""
    from repro.experiments import (
        figure2, figure3, figure4, report, sensitivity, table1, table2,
        table3,
    )

    drivers = {
        "table1": table1,
        "figure2": figure2,
        "table2": table2,
        "figure3": figure3,
        "table3": table3,
        "figure4": figure4,
        "sensitivity": sensitivity,
        "report": report,
    }
    driver = drivers[args.name]
    extra = []
    if args.name != "table1":
        extra += ["--scale", str(args.scale)]
        extra += ["--jobs", str(args.jobs), "--seed", str(args.seed)]
        if args.cache_dir:
            extra += ["--cache-dir", args.cache_dir]
        if args.no_cache:
            extra.append("--no-cache")
        if args.progress:
            extra.append("--progress")
    if args.out is not None:
        # only the report takes it; any other driver refuses it
        extra += ["--out", args.out]
    # the driver's usage errors then name the command that was typed
    driver.main(extra, prog=f"repro experiments {args.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Simulator for 'Combined Performance Gains of Simple Cache "
            "Protocol Extensions' (ISCA 1994)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, protocol=True, multi=False):
        p.add_argument("--app", choices=ALL_APP_NAMES, default="mp3d")
        p.add_argument("--scale", type=scale_arg, default=1.0)
        p.add_argument("--procs", type=positive_int_arg, default=16)
        if protocol:
            p.add_argument("--protocol", choices=ALL_PROTOCOLS, default="BASIC")
            p.add_argument(
                "--extensions", metavar="COMBO", nargs="+" if multi else None,
                help=(
                    "extension combination(s), e.g. 'p,m,cw' or 'P+M'; "
                    "accepts any registered extension (see "
                    "list-extensions) and overrides --protocol(s)"
                ),
            )
            p.add_argument(
                "--consistency", choices=("RC", "SC"), default="RC"
            )
            p.add_argument(
                "--mesh", type=int, metavar="LINK_BITS",
                help="use a wormhole mesh with this link width",
            )

    p_run = sub.add_parser("run", help="simulate one configuration")
    common(p_run)
    p_run.add_argument(
        "--trace-file", help="drive the run from a trace file instead"
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="profile the run and print the top 25 cumulative entries",
    )
    p_run.add_argument(
        "--profile-out", metavar="FILE",
        help="write the profile as a pstats dump (implies --profile)",
    )
    p_run.add_argument(
        "--verbose", action="store_true",
        help="print the engine's timing digest (wall, sim time, cell "
             "sources) on stderr",
    )
    p_run.set_defaults(fn=cmd_run)

    # listed for --help only: main() hands everything after "bench" to
    # cmd_bench before any parsing
    sub.add_parser(
        "bench", add_help=False,
        help="run benchmarks/e2e/run.py of this checkout with the "
             "arguments that follow",
    )

    p_cmp = sub.add_parser("compare", help="rank protocols on one app")
    common(p_cmp, multi=True)
    p_cmp.add_argument(
        "--protocols", nargs="+", default=list(ALL_PROTOCOLS),
        choices=ALL_PROTOCOLS,
    )
    add_sweep_args(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_ls = sub.add_parser(
        "list-extensions", help="print the protocol-extension registry"
    )
    p_ls.set_defaults(fn=cmd_list_extensions)

    p_an = sub.add_parser("analyze", help="sharing-pattern census")
    common(p_an, protocol=False)
    p_an.set_defaults(fn=cmd_analyze)

    p_tr = sub.add_parser("trace", help="dump reference streams to a file")
    common(p_tr, protocol=False)
    p_tr.add_argument("--out", required=True)
    p_tr.set_defaults(fn=cmd_trace)

    p_ver = sub.add_parser(
        "verify",
        help="protocol verification (model checker / fuzzer / registry)",
    )
    vsub = p_ver.add_subparsers(dest="verify_command", required=True)

    p_vm = vsub.add_parser(
        "model",
        help="bounded model checking of small configurations",
        description=(
            "Exhaustively explore every interleaving of a small op "
            "alphabet on a tiny machine, asserting the coherence "
            "invariants at every visited state.  With --extensions, "
            "check that one combination; without it, sweep the full "
            "registry cross-product of extension combinations x "
            "consistency models."
        ),
    )
    p_vm.add_argument("--nodes", type=int, default=2, metavar="N",
                      help="nodes in the model (default: %(default)s)")
    p_vm.add_argument("--blocks", type=int, default=1, metavar="N",
                      help="logical blocks (default: %(default)s)")
    p_vm.add_argument("--depth", type=int, default=4, metavar="N",
                      help="op-sequence depth bound (default: %(default)s)")
    p_vm.add_argument(
        "--extensions", metavar="COMBO",
        help=(
            "extension combination to check ('p,cw,m', 'P+M', ...); "
            "omit to sweep the full registry cross-product"
        ),
    )
    p_vm.add_argument(
        "--consistency", choices=("RC", "SC"),
        help="consistency model (default: RC; matrix mode sweeps both)",
    )
    p_vm.add_argument(
        "--max-states", type=int, default=50_000, metavar="N",
        help="stop after this many canonical states (default: %(default)s)",
    )
    p_vm.add_argument(
        "--no-symmetry", action="store_true",
        help="disable state dedup modulo node renaming",
    )
    p_vm.add_argument(
        "--coverage", action="store_true",
        help="print the full coverage listing per matrix combo",
    )
    p_vm.add_argument(
        "--no-coverage", action="store_true",
        help="suppress the coverage listing in single-combo mode",
    )
    p_vm.add_argument(
        "--progress", action="store_true",
        help="report exploration progress on stderr",
    )
    p_vm.set_defaults(fn=cmd_verify_model)

    p_vf = vsub.add_parser(
        "fuzz",
        help="seeded long-run invariant fuzzing",
        description=(
            "Run long random reference streams on randomized machine "
            "configurations; failures are shrunk by greedy stream "
            "deletion and reported as replayable reproductions."
        ),
    )
    p_vf.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default: %(default)s)")
    p_vf.add_argument("--trials", type=int, default=5, metavar="N",
                      help="randomized trials (default: %(default)s)")
    p_vf.add_argument("--ops", type=int, default=5000, metavar="N",
                      help="ops per processor stream (default: %(default)s)")
    p_vf.add_argument(
        "--max-events", type=int, default=80_000_000, metavar="N",
        help="per-trial simulator event budget (default: %(default)s)",
    )
    p_vf.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without shrinking them",
    )
    p_vf.set_defaults(fn=cmd_verify_fuzz)

    p_vr = vsub.add_parser(
        "registry",
        help="static lint of the extension registry's metadata",
    )
    p_vr.set_defaults(fn=cmd_verify_registry)

    p_ex = sub.add_parser("experiments", help="run a table/figure driver")
    p_ex.add_argument(
        "name",
        choices=(
            "table1", "figure2", "table2", "figure3", "table3",
            "figure4", "sensitivity", "report",
        ),
    )
    p_ex.add_argument("--scale", type=scale_arg, default=1.0)
    p_ex.add_argument(
        "--out", default=None, metavar="FILE",
        help="report only: the file to write (required at a --scale or "
             "--seed other than the committed EXPERIMENTS.md's)",
    )
    add_sweep_args(p_ex)
    p_ex.set_defaults(fn=cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["bench"]:
        return cmd_bench(argv[1:])
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
