"""Tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They drive ``run.py`` as a user would, on the shrunk ``--smoke`` sizes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def copy_bench(dest: Path, with_program: bool) -> Path:
    """A checkout in ``dest`` holding the benchmark, and the program's
    ``src/`` as a link when ``with_program``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if with_program:
        (dest / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return dest


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_rounds_pass_every_check(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    proc = bench("rounds", "--smoke", "--out", str(out))
    assert time.monotonic() - start < 60
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == WORKLOADS
    declared = [m["name"] for m in SPEC["end_to_end"]]
    for row in doc["workloads"].values():
        assert row["fail_frac"] == 0
        assert row["digest_status"] == "pinned"
        assert list(row["summary"]) == declared
        assert all(s["n"] == 1 and s["median"] > 0 for s in row["summary"].values())
    assert {"git_rev", "python", "platform", "cpu_count"} <= set(doc)
    assert all("load_before" in r and "load_after" in r for r in doc["rounds"])


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_exactly_the_declared_metrics(trace, kind):
    proc = bench("--workload", "contended16", "--seed", "1994", "--seconds",
                 "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = result_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]


@pytest.mark.parametrize("workload", ["contended16", "report_cached"])
def test_tampered_digests_fail_every_cell(tmp_path, workload):
    tree = copy_bench(tmp_path, with_program=True)
    pins_file = tree / "benchmarks" / "e2e" / "expected.json"
    expected = json.loads(pins_file.read_text())
    for pins in expected["digests"]["smoke"].values():
        for seed in pins:
            pins[seed] = "0" * 16
    pins_file.write_text(json.dumps(expected))
    proc = bench("--workload", workload, "--seed", "1994", "--seconds", "1",
                 "--trace", "0", "--smoke", cwd=tree)
    assert proc.returncode != 0
    line = result_line(proc)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1


def test_compare_gives_each_verdict():
    base = [10.0, 10.1, 9.9, 10.2, 9.8]
    cases = {
        "unchanged": [10.05, 9.95, 10.1, 9.9, 10.0],
        "improved": [9.0, 9.1, 8.9, 9.05, 8.95],
        "regressed": [11.5, 11.6, 11.4, 11.7, 11.3],
        "unresolved": [8.0, 12.0, 10.0, 9.0, 11.5],
    }
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}

    def doc(series):
        return {"workloads": {
            name: {"samples": {"wall_s": values}, "fail_frac": 0.0}
            for name, values in series.items()}}

    rows = run.compare_docs(doc({k: base for k in cases}), doc(cases), [metric])
    assert {k: row["verdict"] for k, row in rows.items()} == {k: k for k in cases}
    improved = rows["improved"]["metrics"]["wall_s"]
    assert improved["won"] == improved["pairs"] == 5
    assert improved["base"]["median"] == 10.0


def test_failures_regress_with_zero_bound():
    base = {"workloads": {"w": {"samples": {}, "fail_frac": 0.0}}}
    change = {"workloads": {"w": {"samples": {}, "fail_frac": 0.01}}}
    assert run.compare_docs(base, change, [])["w"]["verdict"] == "regressed"


def test_layer_self_times_sum_to_profile_total(tmp_path):
    tree = copy_bench(tmp_path, with_program=True)
    proc = bench("--workload", "contended16", "--seed", "1994", "--seconds",
                 "1", "--trace", "1", "--smoke", cwd=tree)
    assert proc.returncode == 0, proc.stderr
    assert result_line(proc)["metrics"]["trace.overhead_ratio"]["value"] > 1.0
    doc = json.loads((tree / "benchmarks" / "e2e" / ".work"
                      / "trace-contended16-1994.json").read_text())
    prof = doc["profile"]
    total = sum(layer["self_s"] for layer in prof["layers"].values())
    assert total == pytest.approx(prof["total_s"], rel=1e-9)
    assert prof["layers"]["core.cache_ctrl"]["self_s"] > 0
    names = {span["name"] for span in doc["spans"]}
    assert {"workloads.build", "system.build", "system.run"} <= names


def test_traced_run_counts_each_workload_build_once():
    # contended16 builds the workload of each of its three cells once
    proc = bench("--workload", "contended16", "--seed", "1994", "--seconds",
                 "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = result_line(proc)["metrics"]
    assert metrics["workloads.build.calls"]["value"] == 3
    assert metrics["system.run.calls"]["value"] == 3


def test_function_named_by_two_points_is_wrapped_once(monkeypatch):
    module = types.ModuleType("span_target")
    module.call = lambda: None
    monkeypatch.setitem(sys.modules, "span_target", module)
    point = ("span_target", "call", "target.call")
    monkeypatch.setattr(tracing, "SPAN_POINTS", (point, point))
    tracer = tracing.Tracer("test")
    tracer.install()
    tracer.active = True
    module.call()
    assert tracer.span_summary()["target.call"]["calls"] == 1


def test_missing_span_point_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_POINTS",
                        (("repro.workloads", "no_such_call", "workloads.build"),))
    with pytest.raises(LookupError, match="no_such_call"):
        tracing.Tracer("test").install()


def test_module_layer_map():
    root = str(ROOT / "src" / "repro")

    def layer(rel, func="f"):
        return tracing.module_layer(f"{root}/{rel}", func, root)

    assert layer("system.py", "_send") == "system.transport"
    assert layer("system.py", "run") == "system"
    assert layer("network/mesh.py") == "network"
    assert layer("core/extensions/competitive_ext.py") == "core.extensions.competitive_ext"
    assert layer("core/extensions/base.py") == "core"
    assert layer("sweep/pool.py") == "sweep.pool"
    assert layer("sweep/cache.py") == "sweep"
    assert tracing.module_layer("/usr/lib/python3/json/decoder.py", "f", root) == "stdlib"


def test_speed_samples_leave_out_their_own_time():
    speed = hostspeed.Sampler()
    # a launcher may hand the benchmark a mask that blocks SIGALRM
    old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    speed.start()
    try:
        mark = speed.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        probe_s, spent_s = speed.stretch(mark)
    finally:
        speed.stop()
        signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
    taken = len(speed.samples) - mark[0]
    assert taken >= 0.5 / hostspeed.SAMPLE_INTERVAL_S / 2
    assert probe_s > 0
    assert 0 < spent_s < 0.5


def test_short_stretch_is_topped_up_with_probes():
    speed = hostspeed.Sampler()
    probe_s, spent_s = speed.stretch(speed.mark())
    assert probe_s > 0 and spent_s == 0.0
    assert run.at_reference_speed(2.0, 2 * hostspeed.REFERENCE_PROBE_S) == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    tree = copy_bench(tmp_path, with_program=False)
    proc = bench("--workload", "hitpath16", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tree)
    assert proc.returncode != 0
    assert proc.stdout == ""
