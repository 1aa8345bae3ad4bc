"""One run of one benchmark workload, in a fresh process.

``run.py`` starts this file once per timed run and once per traced run::

    python3 benchmarks/e2e/child.py --workload W --seed N --size full \\
        --scratch DIR --result FILE --t0 T [--cache-dir DIR] [--trace-doc F]
        [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` covers interpreter start, imports, workload generation and
machine build.  ``--setup-only`` stops there and reports only
``setup_s``.  The timed region is one closed-loop request: the
workload's calls run back to back, each after the previous returns.
Both stretches are sampled for host speed (``hostspeed.py``), so the
parent can rescale their times to the reference host's speed; the
seconds spent sampling are left out of both.  A traced run takes its
speed samples after each stretch instead, outside the profile.
The child writes one JSON result document to ``--result``; with
``--trace-doc`` it also records spans and a profile of the timed region
(see ``tracing.py``) and writes them there.

The program is driven only through its public entry points: the
experiment CLIs' ``main``, ``repro.workloads.build_workload``,
``System(cfg).run()``, ``RunSpec.for_run``, ``SweepEngine`` and
``ResultCache`` (through the CLIs' ``--jobs`` and ``--cache-dir``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout

from hostspeed import Sampler

SIZES = ("full", "smoke")

#: simulated-machine counters hashed into a cell's digest.  A fixed
#: list rather than ``MachineStats.to_dict()``, so counters added later
#: do not change the digest; ``events_fired`` is left out because it
#: counts simulator work, not simulated behaviour.
PROC_TIME_FIELDS = ("busy", "read_stall", "write_stall", "acquire_stall",
                    "release_stall")
CACHE_DIGEST_FIELDS = (
    "demand_read_misses", "cold_misses", "replacement_misses",
    "coherence_misses", "late_prefetch_hits", "prefetches_issued",
    "useful_prefetches", "updates_received", "updates_dropped",
)
CACHE_COUNT_FIELDS = (
    "demand_read_misses", "cold_misses", "coherence_misses",
    "replacement_misses", "flwb_forwards", "writebacks",
    "ownership_requests", "invalidations_received",
)

#: the report's only wall-clock line; stripped before hashing.
REPORT_TIMING_PREFIX = "Total generation time:"


def digest_text(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True)
            if not line.startswith(REPORT_TIMING_PREFIX)]
    return hashlib.sha256("".join(kept).encode()).hexdigest()[:16]


def digest_stats(stats_list) -> str:
    vectors = [
        [
            st.execution_time,
            [[getattr(p, f) for f in PROC_TIME_FIELDS] for p in st.procs],
            [[getattr(c, f) for f in CACHE_DIGEST_FIELDS] for c in st.caches],
            [st.network.messages, st.network.bytes,
             sorted(st.network.by_type.items())],
        ]
        for st in stats_list
    ]
    blob = json.dumps(vectors, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def simulated_stats(results) -> list:
    """Stats of the results a sweep actually simulated.

    Cache hits are left out, and so are dedup'd cells, which share the
    one ``RunResult`` object of the cell that was simulated.
    """
    unique = {id(r): r for r in results if not r.from_cache}
    return [r.stats for r in unique.values()]


def exact_counts(stats_list, simulated, events: int, sweep_runs) -> dict:
    """Deterministic per-layer counts over every cell a run completed.

    ``workloads.refs``, the ``refs_per_s`` numerator, counts only the
    ``simulated`` cells.  ``sweep_runs`` holds ``(last_run_stats(),
    jobs)`` per ``SweepEngine.run`` call; ``sweep.utilization``
    (simulation seconds per worker-second of batch wall time) is the one
    timing among them.
    """
    c: Counter = Counter()
    c["workloads.refs"] = sum(st.total_shared_refs for st in simulated)
    useful = dropped = 0
    peak_util = 0.0
    for st in stats_list:
        for p in st.procs:
            for f in PROC_TIME_FIELDS:
                c["proc." + f] += getattr(p, f)
        for cache in st.caches:
            for f in CACHE_COUNT_FIELDS:
                c["cache." + f] += getattr(cache, f)
            c["ext.P.prefetches_issued"] += cache.prefetches_issued
            useful += cache.useful_prefetches
            c["ext.CW.updates_received"] += cache.updates_received
            dropped += cache.updates_dropped
            c["ext.CW.flushes"] += cache.write_cache_flushes
        net = st.network
        c["net.messages"] += net.messages
        c["net.bytes"] += net.bytes
        c["net.data_messages"] += net.data_messages
        for mtype, n in net.by_type.items():
            c["net.msgs." + mtype] += n
        peak_util = max(peak_util, net.peak_link_utilization)
    out = dict(c)
    out["sim.engine.events"] = events
    out["net.peak_link_util"] = peak_util
    issued = c["ext.P.prefetches_issued"]
    out["ext.P.useful_ratio"] = useful / issued if issued else 0.0
    received = c["ext.CW.updates_received"]
    out["ext.CW.drop_ratio"] = dropped / received if received else 0.0
    if sweep_runs:
        out["sweep.cells_sim"] = sum(s["sim"] for s, _ in sweep_runs)
        out["sweep.cache_hits"] = sum(s["cache"] for s, _ in sweep_runs)
        worker_s = sum(s["wall_time"] * jobs for s, jobs in sweep_runs)
        sim_s = sum(s["sim_time"] for s, _ in sweep_runs)
        out["sweep.utilization"] = sim_s / worker_s if worker_s else 0.0
    else:
        out["sweep.cells_sim"] = len(stats_list)
        out["sweep.cache_hits"] = 0
        out["sweep.utilization"] = 0.0
    return out


# ----------------------------------------------------------------------
# jobs: set-up outside the timed region, then one closed-loop request
# ----------------------------------------------------------------------

class DirectJob:
    """Cells run through ``build_workload`` and ``System(cfg).run()``.

    Workload streams and machines are built during set-up; the timed
    region runs the cells one after another.
    """

    def __init__(self, specs) -> None:
        self.specs = specs

    def setup(self) -> None:
        import repro.workloads as workloads
        from repro.system import System

        self.machines = []
        for spec in self.specs:
            cfg = spec.to_config()
            streams = workloads.build_workload(
                spec.app, cfg, scale=spec.scale, seed=spec.seed)
            self.machines.append((System(cfg), streams))

    def timed(self) -> None:
        self.stats = [system.run(streams) for system, streams in self.machines]

    def outcome(self) -> tuple:
        events = sum(system.sim.events_fired for system, _ in self.machines)
        return self.stats, self.stats, digest_stats(self.stats), events, []


class CliJob:
    """``repeats`` back-to-back calls of an experiment CLI's ``main``.

    Each call builds its own engine and cache object, as a new command
    line would.  ``SweepEngine.run`` is wrapped only to keep each
    batch's results and ``last_run_stats()`` for the counts, which are
    computed after the timed region.
    """

    def __init__(self, module: str, argv: list[str], repeats: int,
                 report_dir: str | None = None) -> None:
        self.module = module
        self.argv = argv
        self.repeats = repeats
        #: the report CLI writes a file; other CLIs print to stdout.
        self.report_dir = report_dir

    def setup(self) -> None:
        from repro.sweep import SweepEngine

        self.main = importlib.import_module(self.module).main
        self.batches: list = []
        batches = self.batches
        engine_run = SweepEngine.run

        def recorded_run(engine, *args, **kwargs):
            results = engine_run(engine, *args, **kwargs)
            jobs = engine.max_workers if engine.executor == "process" else 1
            batches.append((results, engine.last_run_stats(), jobs))
            return results

        SweepEngine.run = recorded_run

    def timed(self) -> None:
        self.stdout = []
        for i in range(self.repeats):
            argv = list(self.argv)
            if self.report_dir is not None:
                argv += ["--out", os.path.join(self.report_dir, f"report{i}.md")]
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                self.main(argv)
            self.stdout.append(out.getvalue())

    def outcome(self) -> tuple:
        if self.report_dir is not None:
            texts = []
            for i in range(self.repeats):
                path = os.path.join(self.report_dir, f"report{i}.md")
                with open(path) as fh:
                    texts.append(fh.read())
        else:
            texts = self.stdout
        digests = {digest_text(t) for t in texts}
        digest = digests.pop() if len(digests) == 1 else "inconsistent"
        results = [r for batch, _, _ in self.batches for r in batch]
        stats = [r.stats for r in results]
        sweep_runs = [(s, jobs) for _, s, jobs in self.batches]
        return stats, simulated_stats(results), digest, 0, sweep_runs


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------

#: the smallest scale the report's workload size floors allow; its
#: cells cost about the same at every scale below 0.2.
REPORT_SCALE = "0.05"
#: experiment CLIs never use more pool workers than this.
JOBS_MAX = min(2, os.cpu_count() or 1)


def _report_job(args, repeats: int, jobs: int = 1) -> CliJob:
    if args.cache_dir is None:
        raise SystemExit(f"{args.workload} needs --cache-dir")
    argv = ["--scale", REPORT_SCALE, "--seed", str(args.seed),
            "--cache-dir", args.cache_dir, "--jobs", str(jobs)]
    return CliJob("repro.experiments.report", argv, repeats,
                  report_dir=args.scratch)


def report_fill(args):
    """Untimed set-up of ``report_cached``: one cold report into the
    cache it then reads, on the CLI's pool."""
    return _report_job(args, 1, jobs=JOBS_MAX)


def report_cached(args):
    return _report_job(args, {"full": 8, "smoke": 2}[args.size])


def sweep_jobs2(args):
    # 0.05 is already the smallest figure2 the workloads' size floors
    # allow, so the smoke size is the full one
    argv = ["--scale", "0.05",
            "--jobs", str(JOBS_MAX), "--seed", str(args.seed),
            "--cache-dir", os.path.join(args.scratch, "cache")]
    return CliJob("repro.experiments.figure2", argv, 1)


def _spec(app, protocol, scale, seed, n_procs=16, **kw):
    from repro.sweep import RunSpec

    return RunSpec.for_run(app, protocol=protocol, n_procs=n_procs,
                           scale=scale, seed=seed, **kw)


def contended16(args):
    scale = {"full": 0.2, "smoke": 0.1}[args.size]
    return DirectJob([
        _spec("mp3d", "P+CW+M", scale, args.seed),
        _spec("ocean", "P+CW+M", scale, args.seed),
        _spec("cholesky", "CW", scale, args.seed),
    ])


def hitpath16(args):
    scale = {"full": 0.2, "smoke": 0.1}[args.size]
    return DirectJob([_spec("hitpath", "BASIC", scale, args.seed)])


#: workload name -> job factory, in report order; ``report_fill`` is
#: the parent's set-up for ``report_cached``, not a workload.
JOBS = {
    "report_cached": report_cached,
    "contended16": contended16,
    "hitpath16": hitpath16,
    "sweep_jobs2": sweep_jobs2,
    "report_fill": report_fill,
}


# ----------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(JOBS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=SIZES, required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--cache-dir")
    p.add_argument("--trace-doc")
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and skip the request")
    return p


def main(argv: list[str] | None = None) -> None:
    args = _parser().parse_args(argv)
    speed = Sampler()
    setup_mark = (0, 0.0)  # building the sampler is spent time too
    tracer = None
    if args.trace_doc:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
        tracer.active = True
    else:
        speed.start()

    def phase(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    job = JOBS[args.workload](args)
    with phase("run.setup"):
        job.setup()
    setup_s = time.monotonic() - args.t0
    setup_probe_s, spent_s = speed.stretch(setup_mark)
    setup_s -= spent_s
    if args.setup_only:
        speed.stop()
        with open(args.result, "w") as fh:
            json.dump({"workload": args.workload, "setup_s": setup_s,
                       "probe_s": [setup_probe_s]}, fh)
        return
    request_mark = speed.mark()
    with phase("run.timed"):
        if tracer is not None:
            tracer.profile.enable()
        t0 = time.perf_counter()
        job.timed()
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.profile.disable()
    request_probe_s, spent_s = speed.stretch(request_mark)
    speed.stop()
    wall_s -= spent_s
    if tracer is not None:
        tracer.active = False

    stats, simulated, digest, events, sweep_runs = job.outcome()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "setup_s": setup_s,
        "wall_s": wall_s,
        # mean probe seconds during set-up, then during the request
        "probe_s": [setup_probe_s, request_probe_s],
        "cells": len(stats),
        "refs_completed": sum(st.total_shared_refs for st in stats),
        "digest": digest,
        "counts": exact_counts(stats, simulated, events, sweep_runs),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        import repro
        from tracing import layer_table

        repro_root = os.path.dirname(os.path.abspath(repro.__file__))
        doc = {
            "run": tracer.run_id,
            "wall_s": wall_s,
            "profile": layer_table(tracer.profile, repro_root),
            "spans_summary": tracer.span_summary(),
            "spans": tracer.spans,
        }
        with open(args.trace_doc, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    main()
