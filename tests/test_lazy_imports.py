"""What each entry point imports, checked in fresh interpreters.

The exports of ``repro`` and ``repro.sweep`` whose home is the
simulator, the API, the sweep engine, the pool or the cache resolve on
first use, so a direct simulation loads the simulator alone, and an
experiment CLI that reads its cells from the cache never loads the
simulator or the pool.  These tests pin those import budgets, the
package exports, the pool's promise to load the simulation stack
before it forks a worker, and that the modules which once sat on
import cycles import on their own, also under a bare ``repro`` package
whose ``__init__`` never ran.
"""

import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: modules a direct ``System(cfg).run()`` never needs.
NOT_FOR_A_SIMULATION = (
    "repro.api", "repro.sweep.engine", "repro.sweep.pool",
    "repro.sweep.cache", "multiprocessing", "concurrent.futures",
    "logging", "socket", "subprocess", "pickle",
)

#: modules (and packages, with their submodules) that reading cells
#: from the result cache never needs.
NOT_FOR_A_CACHED_RUN = (
    "repro.system", "repro.core.cache_ctrl", "repro.node",
    "repro.sweep.pool", "multiprocessing", "concurrent.futures",
    "logging", "socket", "subprocess", "pickle",
)

#: every module of the experiment drivers' package.
EXPERIMENT_MODULES = sorted(
    f"repro.experiments.{info.name}"
    for info in pkgutil.iter_modules([os.path.join(SRC, "repro",
                                                   "experiments")])
)

#: modules that sat on an import cycle an eager package import hid.
ONCE_CYCLIC = (
    "repro.mem.slc", "repro.stats.epochs", "repro.core.competitive",
    "repro.sweep.spec", "repro.system",
)


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statements: str, modules) -> dict:
    """Which of ``modules`` are in ``sys.modules`` after ``statements``."""
    out = _python(f"""
        import json, sys
        {statements}
        print(json.dumps({{m: m in sys.modules for m in {list(modules)!r}}}))
    """)
    return json.loads(out)


def test_direct_simulation_imports_only_the_simulator():
    loaded = _loaded_after(
        "from repro.sweep import RunSpec; import repro.workloads; "
        "from repro.system import System",
        NOT_FOR_A_SIMULATION,
    )
    assert [m for m, present in loaded.items() if present] == []


#: defines ``unneeded(names)``: those of ``names`` that fall under
#: NOT_FOR_A_CACHED_RUN.
_PRINT_UNNEEDED = f"""
def unneeded(names):
    return sorted(m for m in names
                  if any(m == p or m.startswith(p + ".")
                         for p in {NOT_FOR_A_CACHED_RUN!r}))
"""


@pytest.mark.parametrize("module", EXPERIMENT_MODULES)
def test_experiment_driver_loads_no_simulator_or_pool(module):
    out = _python(_PRINT_UNNEEDED + f"""
import sys
import {module}
print(unneeded(sys.modules))
""")
    assert out.strip() == "[]"


def test_parser_loads_no_simulator_or_pool():
    out = _python(_PRINT_UNNEEDED + """
import sys
from repro.cli import build_parser
build_parser()
print(unneeded(sys.modules))
""")
    assert out.strip() == "[]"


def test_cached_sweep_imports_nothing(tmp_path):
    # fill the cache, then read it back the way an experiment CLI does:
    # a two-worker engine with the hot tier on
    from repro.sweep import ResultCache, RunSpec, SweepEngine

    cells = [("water", "BASIC", "RC"), ("water", "P", "RC"),
             ("water", "P+M", "SC")]
    specs = [RunSpec.for_run(app, protocol=p, consistency=c, n_procs=2,
                             scale=0.2) for app, p, c in cells]
    SweepEngine(cache=ResultCache(tmp_path)).run(specs)
    out = _python(_PRINT_UNNEEDED + f"""
import argparse, json, sys
from repro.experiments.runner import engine_from_args
from repro.sweep import RunSpec

engine = engine_from_args(argparse.Namespace(
    jobs=2, cache_dir={str(tmp_path)!r}, no_cache=False, progress=False))
before = set(sys.modules)
for _ in range(2):
    specs = [RunSpec.for_run(app, protocol=p, consistency=c, n_procs=2,
                             scale=0.2) for app, p, c in {cells!r}]
    results = engine.run(specs)
new = set(sys.modules) - before
print(json.dumps({{
    "executor": engine.executor,
    "hits": engine.hits, "misses": engine.misses,
    "hot_hits": engine.cache.hot_hits,
    "unneeded": unneeded(sys.modules),
    "new_repro": sorted(m for m in new if m.startswith("repro")),
}}))
""")
    report = json.loads(out)
    assert report["executor"] == "process"
    assert (report["hits"], report["misses"]) == (6, 0)
    assert report["hot_hits"] == 3
    assert report["unneeded"] == []
    assert report["new_repro"] == []


def test_forked_workers_start_with_the_simulator_loaded():
    # a forked worker inherits its parent's modules; the pool loads the
    # simulation stack before each fork, so no task imports it
    out = _python("""
import json, os, sys
from repro.sweep import RunSpec, SweepEngine

wanted = ("repro.system", "repro.workloads")
at_fork = []
os.register_at_fork(
    before=lambda: at_fork.append([m in sys.modules for m in wanted]))
loaded_before = [m in sys.modules for m in wanted]
specs = [RunSpec.for_run("water", protocol=p, n_procs=2, scale=0.2)
         for p in ("BASIC", "P")]
SweepEngine(max_workers=2).run(specs)
print(json.dumps({"loaded_before": loaded_before, "at_fork": at_fork}))
""")
    report = json.loads(out)
    if not report["at_fork"]:
        pytest.skip("the pool spawned its workers here")
    # the engine alone does not load the simulator: the pool did
    assert report["loaded_before"][0] is False
    assert report["at_fork"] == [[True, True]] * len(report["at_fork"])


def test_package_exports_resolve():
    out = _python("""
        import json, sys
        import repro
        import repro.core
        from repro import System, RunSpec, SweepEngine, api, sweep

        # ``repro.sweep`` is the sweep() helper; the package is here
        sweep_pkg = sys.modules["repro.sweep"]
        missing = object()
        report = {}
        for pkg in (repro, sweep_pkg, repro.core):
            names = pkg.__all__
            report[pkg.__name__] = {
                "unresolved": [n for n in names
                               if getattr(pkg, n, missing) is missing],
                "undir": sorted(set(names) - set(dir(pkg))),
            }
        namespace = {}
        exec("from repro import *", namespace)
        report["star_missing"] = sorted(set(repro.__all__) - set(namespace))
        report["sweep_is_helper"] = (
            sweep is repro.sweep is sys.modules["repro.sweep.engine"].sweep)
        report["api_is_module"] = api is sys.modules["repro.api"]
        print(json.dumps(report))
    """)
    report = json.loads(out)
    for pkg in ("repro", "repro.sweep", "repro.core"):
        assert report[pkg] == {"unresolved": [], "undir": []}, pkg
    assert report["star_missing"] == []
    assert report["sweep_is_helper"] and report["api_is_module"]


@pytest.mark.parametrize("pkg", ["repro", "repro.sweep", "repro.core"])
def test_unknown_attribute_names_itself(pkg):
    out = _python(f"""
        import importlib
        pkg = importlib.import_module({pkg!r})
        try:
            pkg.no_such_export
        except AttributeError as exc:
            print(exc)
    """)
    assert "no_such_export" in out and pkg in out


@pytest.mark.parametrize("module", ONCE_CYCLIC)
def test_module_imports_on_its_own(module):
    _python(f"import {module}")


#: preloads an empty ``repro`` package, so ``repro/__init__`` -- which
#: imports the simulator in a fixed order -- cannot hide a cycle.
BARE_PACKAGE = f"""
import sys, types
pkg = types.ModuleType("repro")
pkg.__path__ = [{os.path.join(SRC, "repro")!r}]
sys.modules["repro"] = pkg
"""


@pytest.mark.parametrize("module", ONCE_CYCLIC)
def test_module_imports_under_a_bare_package(module):
    _python(BARE_PACKAGE + f"import {module}")
