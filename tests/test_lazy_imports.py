"""What each entry point imports, checked in fresh interpreters.

The exports of ``repro`` and ``repro.sweep`` whose home is the API, the
sweep engine, the pool or the cache resolve on first use, so a direct
simulation loads the simulator alone.  These tests pin that import
budget, the package exports, the engine's promise to load the
simulation stack before a pool worker is forked from it, and that the
modules which once sat on import cycles import on their own, also
under a bare ``repro`` package whose ``__init__`` never ran.
"""

import json
import os
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


def test_engine_loads_the_simulation_stack_before_any_fork():
    # a pool worker forked from the engine's process inherits its
    # modules, so it must not import the simulator inside a task
    loaded = _loaded_after("from repro.sweep import SweepEngine",
                           ("repro.system", "repro.workloads"))
    assert loaded == {"repro.system": True, "repro.workloads": True}


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
