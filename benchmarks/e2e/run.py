"""End-to-end benchmark of the simulator, from paper report to hit path.

Each workload runs as a closed loop of timed runs: one request at a
time, the next started only after the previous returns, each in a
fresh child process (``child.py``).  Every output is checked against
the digests pinned in ``expected.json``.  Metric names, units and
bounds come from ``BENCHMARK.json`` at the repository root.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        One workload for S seconds; prints one JSON result line.
        --trace 0 reports the end-to-end metrics, --trace 1 the
        per-layer ones.
    python3 benchmarks/e2e/run.py rounds [--runs 5] [--seed 1994] [--smoke] [--out F]
        Round-robin over the workloads, each round running every
        workload's closed loop for BENCHMARK.json's run_seconds;
        writes a result file.
    python3 benchmarks/e2e/run.py trace [--seed 1994] [--smoke] [--out F]
        One untraced and one traced run per workload; writes the spans
        and the per-layer table.
    python3 benchmarks/e2e/run.py compare A.json B.json
        Verdict per (metric, workload) between two ``rounds`` files.

The program is built from source: children import ``repro`` from
``src/`` of the checkout this file sits in.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import hostspeed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = BENCH_DIR / "expected.json"
#: scratch space for caches, traces, logs and default result files.
WORK = BENCH_DIR / ".work"

DEFAULT_SEED = 1994
#: a single invocation must finish well inside three minutes.
MEASURE_DEADLINE_S = 170.0
ROUNDS_CHILD_TIMEOUT_S = 900.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program or spec)."""


def load_spec() -> dict:
    try:
        with open(SPEC_FILE) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_FILE}: {exc}") from exc


def check_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'repro'} is missing")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_revision() -> str:
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("+dirty" if dirty else "")


def environment() -> dict:
    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


#: how set-up host seconds follow the probe's: part of the set-up is
#: process start, file reads and unmarshalling, which the probe's speed
#: does not track.  0.75 gave the steadiest per-invocation medians of
#: ``setup_s`` on five workloads (README.md, "Host speed").
SETUP_SPEED_EXPONENT = 0.75


def at_reference_speed(host_s: float, probe_s: float,
                       exponent: float = 1.0) -> float:
    """Host seconds rescaled to the reference host's speed, by the mean
    probe seconds sampled during them (``hostspeed.py``)."""
    return host_s * (hostspeed.REFERENCE_PROBE_S / probe_s) ** exponent


def setup_seconds(sample: dict) -> float:
    """``setup_s`` of one run, at reference speed."""
    return at_reference_speed(sample["setup_s"], sample["probe_s"][0],
                              SETUP_SPEED_EXPONENT)


def wall_seconds(sample: dict) -> float:
    """The request's seconds, at reference speed."""
    return at_reference_speed(sample["wall_s"], sample["probe_s"][1])


def e2e_values(sample: dict) -> dict:
    """End-to-end metrics of one timed run, times at reference speed.

    ``refs_per_s`` counts the references of the cells the run simulated.
    ``report_cached`` simulates nothing, so there it counts those of the
    cells served from the cache: ``cells_per_s`` times a constant, kept
    only because every end-to-end metric must be reported and non-zero.
    """
    wall = wall_seconds(sample)
    refs = (sample["refs_completed"] if sample["workload"] == "report_cached"
            else sample["counts"]["workloads.refs"])
    return {
        "wall_s": wall,
        "refs_per_s": refs / wall,
        "cells_per_s": sample["cells"] / wall,
        "setup_s": setup_seconds(sample),
        "peak_rss_mb": sample["peak_rss_mb"],
    }


def per_layer_values(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics: spans and self time from the traced run,
    exact counts from the untraced one."""
    values: dict = {}
    for name, row in traced["trace"]["spans_summary"].items():
        values[f"{name}_s"] = row["total_s"]
        values[f"{name}.calls"] = row["calls"]
    for layer in (*tracing.LAYERS, "system.transport", "stdlib"):
        values[f"{layer}.self_s"] = 0.0
        values[f"{layer}.calls"] = 0
    for layer, row in traced["trace"]["profile"]["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    values.update(untraced["counts"])
    values["host.wall_s"] = untraced["wall_s"]
    values["host.probe_s"] = untraced["probe_s"][1]
    values["trace.overhead_ratio"] = (wall_seconds(traced)
                                      / wall_seconds(untraced))
    return values


def select_metrics(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, by name and unit.

    A message type a run never sent reads 0; any other declared name
    the benchmark cannot compute is an error in the declaration.
    """
    out = {}
    for metric in declared:
        name = metric["name"]
        if name not in values and not name.startswith("net.msgs."):
            raise BenchError(f"BENCHMARK.json declares unknown metric {name!r}")
        out[name] = {"value": values.get(name, 0), "unit": metric["unit"]}
    return out


class Session:
    """Children of one benchmark invocation, and their output checks.

    Each run's output must match the pinned digest for (size, workload,
    seed) when one exists, and otherwise the first output seen, so runs
    of one seed must agree.  The cache ``report_cached`` reads is filled
    once by an untimed cold report, whose output is held to the same
    reference: a cached report must equal the cold one byte for byte.
    """

    def __init__(self, seed: int, size: str,
                 deadline: float | None = None) -> None:
        self.seed = seed
        self.size = size
        #: monotonic time by which every child must have ended
        self.deadline = deadline
        with open(EXPECTED_FILE) as fh:
            self.pins = json.load(fh)["digests"].get(size, {})
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="session-", dir=WORK))
        self.reference: dict[str, str] = {}
        self.filled_cache: Path | None = None
        self._n = 0
        self.env = dict(os.environ)
        self.env.pop("REPRO_TRACE_DIR", None)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        compileall.compile_dir(str(SRC / "repro"), quiet=1)
        compileall.compile_dir(str(BENCH_DIR), quiet=1, maxlevels=0)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def pinned(self, workload: str) -> str | None:
        return self.pins.get(workload, {}).get(str(self.seed))

    def prepare(self, workloads) -> None:
        """Untimed set-up the parent does once: fill the report cache."""
        if "report_cached" not in workloads:
            return
        self.filled_cache = self.dir / "filled-cache"
        fill = self._spawn("report_fill", cache_dir=self.filled_cache)
        pinned = self.pinned("report_cached")
        if fill["ok"] and pinned and fill["digest"] != pinned:
            fill["ok"] = False
            fill["error"] = (f"cold report digest {fill['digest']} != "
                             f"expected {pinned}")
        if not fill["ok"]:
            print(f"[bench] cache fill FAILED: {fill['error']}",
                  file=sys.stderr, flush=True)
        # a failed fill leaves nothing to hold report_cached to: it fails
        self.reference["report_cached"] = (fill["digest"] if fill["ok"]
                                           else "fill-failed")

    def run(self, workload: str, trace: bool = False,
            setup_only: bool = False) -> dict:
        """One timed (or traced) run, checked against its reference.
        A ``setup_only`` run has no output to check."""
        cache_dir = self.filled_cache if workload == "report_cached" else None
        sample = self._spawn(workload, cache_dir=cache_dir, trace=trace,
                             setup_only=setup_only)
        if sample["ok"] and not setup_only:
            expected = self.reference.get(workload, self.pinned(workload))
            if expected is None:
                expected = self.reference[workload] = sample["digest"]
            if sample["digest"] != expected:
                sample["ok"] = False
                sample["error"] = (f"output digest {sample['digest']} != "
                                   f"expected {expected}")
        if not sample["ok"]:
            print(f"[bench] {workload}: FAILED: {sample['error']}",
                  file=sys.stderr, flush=True)
        return sample

    def _spawn(self, workload: str, cache_dir: Path | None = None,
               trace: bool = False, setup_only: bool = False) -> dict:
        self._n += 1
        scratch = self.dir / f"run{self._n}"
        scratch.mkdir()
        result = scratch / "result.json"
        trace_doc = scratch / "trace.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--size", self.size, "--scratch", str(scratch),
               "--result", str(result)]
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        if trace:
            cmd += ["--trace-doc", str(trace_doc)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = (ROUNDS_CHILD_TIMEOUT_S if self.deadline is None
                   else max(1.0, self.deadline - time.monotonic()))
        log_path = self.dir / f"run{self._n}.log"
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [*cmd, "--t0", repr(t0)], stdout=log,
                stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                start_new_session=True,
            )
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            # wait4's usage includes every descendant the child reaped,
            # so pool workers count toward the peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {"workload": workload, "ok": proc.returncode == 0,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if sample["ok"]:
            with open(result) as fh:
                sample.update(json.load(fh))
            if trace:
                with open(trace_doc) as fh:
                    sample["trace"] = json.load(fh)
        else:
            tail = log_path.read_text(errors="replace")[-2000:]
            sample["error"] = f"exit code {proc.returncode}\n{tail}"
        shutil.rmtree(scratch, ignore_errors=True)
        return sample


def tally(samples: list[dict]) -> tuple[int, int]:
    """(attempted, failed) cells.  A run that crashed counts the cells
    its successful siblings completed (1 when none did); a set-up-only
    run that succeeded completes no cells."""
    done = [s["cells"] for s in samples if "cells" in s]
    per_run = max(done) if done else 1
    attempted = failed = 0
    for s in samples:
        if s["ok"] and "cells" not in s:
            continue
        cells = s.get("cells", per_run)
        attempted += cells
        if not s["ok"]:
            failed += cells
    return attempted, failed


#: set-ups measured per closed loop, at the least.
MIN_SETUPS = 15


def closed_loop(session: Session, workload: str, seconds: float,
                min_setups: int = MIN_SETUPS) -> list[dict]:
    """Timed runs back to back for ``seconds``.

    A new run starts when the previous one has ended, as long as
    ``seconds`` have not yet passed, so the last run may end after
    them; there is always at least one.  Stopping early instead would
    leave ``sweep_jobs2``, whose runs take 2 s, with 4 runs in 10 s
    rather than 5.  When fewer than ``min_setups`` runs fit, set-up-only
    runs make up the rest, so ``setup_s`` is a median of several set-ups
    everywhere.
    """
    samples = []
    loop_start = time.monotonic()
    while True:
        samples.append(session.run(workload))
        if time.monotonic() - loop_start >= seconds:
            break
    for _ in range(min_setups - len(samples)):
        samples.append(session.run(workload, setup_only=True))
    return samples


def medians(samples: list[dict]) -> dict:
    """Median of each end-to-end metric over the runs that finished;
    ``setup_s`` also over the set-up-only runs."""
    timed = [e2e_values(s) for s in samples if "wall_s" in s]
    if not timed:
        return {}
    out = {name: statistics.median(v[name] for v in timed) for name in timed[0]}
    out["setup_s"] = statistics.median(
        setup_seconds(s) for s in samples if "setup_s" in s)
    return out


# ----------------------------------------------------------------------
# the single-workload measurement BENCHMARK.json's command runs
# ----------------------------------------------------------------------

def cmd_measure(argv: list[str]) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunk workload sizes (for tests and CI)")
    args = p.parse_args(argv)
    check_program()

    session = Session(args.seed, "smoke" if args.smoke else "full",
                      deadline=time.monotonic() + MEASURE_DEADLINE_S)
    try:
        session.prepare([args.workload])
        if args.trace:
            untraced = session.run(args.workload)
            traced = session.run(args.workload, trace=True)
            samples = [untraced, traced]
            values = {}
            if untraced["ok"] and traced["ok"]:
                values = per_layer_values(untraced, traced)
                out = WORK / f"trace-{args.workload}-{args.seed}.json"
                out.write_text(json.dumps(traced["trace"]))
            declared = spec["per_layer"]
        else:
            samples = closed_loop(session, args.workload, args.seconds)
            values = medians(samples)
            declared = spec["end_to_end"]
    finally:
        session.close()
    attempted, failed = tally(samples)
    metrics = select_metrics(values, declared) if values else {
        m["name"]: {"value": 0, "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# round-robin runs, traces and comparison
# ----------------------------------------------------------------------

def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--smoke", action="store_true",
                   help="shrunk workload sizes, one run each")
    p.add_argument("--out", type=Path)


def _write(doc: dict, out: Path | None, default_name: str) -> Path:
    if out is None:
        WORK.mkdir(exist_ok=True)
        out = WORK / default_name
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return out


def cmd_rounds(argv: list[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="run.py rounds")
    p.add_argument("--runs", type=int, default=5)
    _common_args(p)
    args = p.parse_args(argv)
    check_program()
    runs, seconds = (1, 0.0) if args.smoke else (args.runs, spec["run_seconds"])
    nproc = os.cpu_count() or 1
    session = Session(args.seed, "smoke" if args.smoke else "full")
    samples: dict[str, list[dict]] = {w: [] for w in names}
    series: dict[str, list[dict]] = {w: [] for w in names}
    rounds = []
    try:
        session.prepare(names)
        for index in range(runs):
            before = os.getloadavg()
            for w in names:
                burst = closed_loop(session, w, seconds,
                                    1 if args.smoke else MIN_SETUPS)
                samples[w].extend(burst)
                values = medians(burst)
                if values:
                    series[w].append(values)
                    timed = sum("wall_s" in s for s in burst)
                    print(f"[bench] round {index + 1}/{runs} {w}: {timed} "
                          f"requests, median wall {values['wall_s']:.3f} s",
                          file=sys.stderr, flush=True)
            after = os.getloadavg()
            busy = max(before[0], after[0]) > nproc
            if busy:
                print(f"[bench] warning: load average {max(before[0], after[0]):.2f}"
                      f" exceeded nproc={nproc} during round {index + 1}",
                      file=sys.stderr, flush=True)
            rounds.append({"index": index, "load_before": before,
                           "load_after": after, "overloaded": busy})
    finally:
        session.close()

    e2e = spec["end_to_end"]
    doc = {"kind": "rounds", **environment(), "seed": args.seed,
           "size": session.size, "runs": runs, "seconds": seconds,
           "rounds": rounds,
           "workloads": {}}
    any_failed = False
    for w, ws in samples.items():
        attempted, failed = tally(ws)
        any_failed |= failed > 0
        per_round = {m["name"]: [v[m["name"]] for v in series[w]] for m in e2e}
        summary = {}
        for m in e2e:
            vals = per_round[m["name"]]
            if vals:
                q1, med, q3 = quartiles(vals)
                summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                      "n": len(vals), "unit": m["unit"]}
        digests = sorted({s["digest"] for s in ws if "digest" in s})
        doc["workloads"][w] = {
            "samples": per_round,
            "summary": summary,
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "digests": digests,
            "digest_status": "pinned" if session.pinned(w) else "unpinned",
        }
    out = _write(doc, args.out, f"rounds-{args.seed}-{session.size}.json")
    for w, row in doc["workloads"].items():
        cells = "  ".join(
            f"{name} {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['unit']}"
            for name, s in row["summary"].items())
        print(f"{w:14} fail_frac {row['fail_frac']:.2f} ({row['digest_status']})  "
              f"{cells}")
    print(f"wrote {out}")
    return 1 if any_failed else 0


def cmd_trace(argv: list[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="run.py trace")
    _common_args(p)
    args = p.parse_args(argv)
    check_program()
    session = Session(args.seed, "smoke" if args.smoke else "full")
    doc = {"kind": "trace", **environment(), "seed": args.seed,
           "size": session.size, "workloads": {}}
    any_failed = False
    try:
        session.prepare(names)
        for w in names:
            untraced = session.run(w)
            traced = session.run(w, trace=True)
            if not (untraced["ok"] and traced["ok"]):
                any_failed = True
                continue
            values = per_layer_values(untraced, traced)
            doc["workloads"][w] = {
                "untraced_wall_s": untraced["wall_s"],
                "traced_wall_s": traced["wall_s"],
                "overhead_ratio": values["trace.overhead_ratio"],
                "profile": traced["trace"]["profile"],
                "per_layer": select_metrics(values, spec["per_layer"]),
                "spans": traced["trace"]["spans"],
            }
            prof = traced["trace"]["profile"]
            top = sorted(prof["layers"].items(), key=lambda kv: -kv[1]["self_s"])
            shares = ", ".join(f"{layer} {row['self_s'] / prof['total_s']:.0%}"
                               for layer, row in top[:6])
            print(f"{w:14} overhead {values['trace.overhead_ratio']:.2f}x  "
                  f"self time: {shares}")
    finally:
        session.close()
    out = _write(doc, args.out, f"trace-{args.seed}-{session.size}.json")
    print(f"wrote {out}")
    return 1 if any_failed else 0


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """The decision rule for one (metric, workload) pair.

    ``improved``: the change wins at least 9 in 10 pairs (ties count for
    neither) and its median beats the base median by more than the
    base's quartile spread.  ``regressed``: the median is worse by more
    than ``bound`` x the base median.  ``unresolved``: either side's
    quartile spread is wider than the bound, unless every change run
    beats every base run.  ``unchanged`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - bmed)
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    spread = max(bq3 - bq1, cq3 - cq1)
    dominates = all(sign * (c - b) > 0 for b in base for c in change)
    if -gain > bound * abs(bmed):
        name = "regressed"
    elif pairs and won >= 0.9 * len(pairs) and gain > bq3 - bq1:
        name = "improved"
    elif spread > bound * abs(bmed) and not dominates:
        name = "unresolved"
    else:
        name = "unchanged"
    return {
        "verdict": name,
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "n": len(base)},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "n": len(change)},
        "won": won,
        "pairs": len(pairs),
        "rel_change": (cmed - bmed) / bmed if bmed else 0.0,
    }


#: worst verdict first: a workload's row shows the worst of its metrics.
VERDICT_ORDER = ("regressed", "unresolved", "improved", "unchanged")


def compare_docs(base: dict, change: dict, e2e: list[dict]) -> dict:
    """``{workload: {"verdict", "metrics": {name: verdict(...)}}}``."""
    rows = {}
    for w, b in base["workloads"].items():
        c = change["workloads"].get(w)
        if c is None:
            continue
        metrics = {}
        for m in e2e:
            bs, cs = b["samples"].get(m["name"]), c["samples"].get(m["name"])
            if bs and cs:
                metrics[m["name"]] = verdict(bs, cs, m["better"], m["bound"])
                metrics[m["name"]]["unit"] = m["unit"]
        # failures have an absolute bound of zero
        worse = c["fail_frac"] > b["fail_frac"]
        metrics["fail_frac"] = {
            "verdict": "regressed" if worse else "unchanged",
            "base": b["fail_frac"], "change": c["fail_frac"],
        }
        overall = min((v["verdict"] for v in metrics.values()),
                      key=VERDICT_ORDER.index)
        rows[w] = {"verdict": overall, "metrics": metrics}
    return rows


def _format_row(w: str, row: dict) -> str:
    parts = []
    for name, v in row["metrics"].items():
        if name == "fail_frac":
            parts.append(f"fail_frac {v['verdict']} {v['base']:.2f} -> "
                         f"{v['change']:.2f}")
            continue
        b, c = v["base"], v["change"]
        parts.append(
            f"{name} {v['verdict']} {b['median']:.4g} [{b['q1']:.4g}, "
            f"{b['q3']:.4g}] -> {c['median']:.4g} [{c['q1']:.4g}, "
            f"{c['q3']:.4g}] {v['unit']}, won {v['won']}/{v['pairs']}, "
            f"{v['rel_change']:+.1%} of base median {b['median']:.4g}")
    return f"{w:14} {row['verdict']:10} " + "; ".join(parts)


def cmd_compare(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("base", type=Path, help="rounds file of the parent")
    p.add_argument("change", type=Path, help="rounds file of the change")
    args = p.parse_args(argv)
    spec = load_spec()
    docs = []
    for path in (args.base, args.change):
        with open(path) as fh:
            docs.append(json.load(fh))
    rows = compare_docs(docs[0], docs[1], spec["end_to_end"])
    for w, row in rows.items():
        print(_format_row(w, row))
    return 1 if any(r["verdict"] == "regressed" for r in rows.values()) else 0


COMMANDS = {"rounds": cmd_rounds, "trace": cmd_trace, "compare": cmd_compare}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in COMMANDS:
            return COMMANDS[argv[0]](argv[1:])
        return cmd_measure(argv)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
