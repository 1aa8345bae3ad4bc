"""Per-layer attribution for the traced benchmark run.

Two sources, both recorded from the benchmark's own files:

* **Spans** around the public calls into each layer (workload build,
  machine build, ``System.run``, stats serialization, the result cache,
  the sweep engine, rendering).  Each span
  keeps its name, start, end, parent span id and run id; spans stay in
  memory until the run ends and the caller writes them out.
* **Self time per layer** from ``cProfile``, grouped by the module->layer
  map below.  A builtin's self time goes to the layer of the function
  that called it, except the ``heapq`` builtins, which are the event
  engine's queue and count as ``sim.engine``.

The profiler sees only the thread that enabled it, so the sweep pool's
dispatcher thread and the pool's worker processes are outside the
self-time table; their cost shows in the ``sweep.engine.run`` span.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import pstats
import time
from contextlib import contextmanager

#: (module, attribute, span name): the public calls wrapped in spans.
#: A point that cannot be found fails the traced run, so a renamed or
#: moved call is fixed here rather than read as a layer taking 0 s.
#: A function that two points name is wrapped once.
SPAN_POINTS = (
    ("repro.workloads", "build_workload", "workloads.build"),
    ("repro.system", "System.__init__", "system.build"),
    ("repro.system", "System.run", "system.run"),
    ("repro.stats.counters", "MachineStats.to_dict", "stats.to_dict"),
    ("repro.stats.counters", "MachineStats.from_dict", "stats.from_dict"),
    ("repro.sweep.cache", "ResultCache.get", "sweep.cache.get"),
    ("repro.sweep.cache", "ResultCache.put", "sweep.cache.put"),
    ("repro.sweep.engine", "SweepEngine.run", "sweep.engine.run"),
    ("repro.experiments.figure2", "render", "experiments.render"),
    ("repro.experiments.figure3", "render", "experiments.render"),
    ("repro.experiments.figure4", "render", "experiments.render"),
    ("repro.experiments.table1", "render", "experiments.render"),
    ("repro.experiments.table2", "render", "experiments.render"),
    ("repro.experiments.table3", "render", "experiments.render"),
    ("repro.experiments.sensitivity", "render_buffers", "experiments.render"),
    ("repro.experiments.sensitivity", "render_limited_slc",
     "experiments.render"),
)

#: every span name, in report order.
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_POINTS))

#: layers named after ``repro`` modules; a module belongs to the
#: longest entry that prefixes its dotted name.  Modules no entry
#: covers fall back to their top-level package (``core``, ``node``,
#: ``sim``, ``config``...).
LAYERS = (
    "sim.engine",
    "sim.resource",
    "node.processor",
    "node.bus",
    "core.cache_ctrl",
    "core.home",
    "core.directory",
    "core.extensions.prefetch_ext",
    "core.extensions.competitive_ext",
    "core.extensions.migratory_ext",
    "mem",
    "network",
    "system",
    "workloads",
    "stats",
    "sweep.pool",
    "sweep",
    "experiments",
)

#: ``System`` methods that carry messages between nodes.
TRANSPORT_FUNCS = frozenset({"_send", "_deliver_remote"})

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def module_layer(filename: str, funcname: str, repro_root: str) -> str:
    """The layer of one profiled Python function."""
    path = os.path.abspath(filename)
    if path.startswith(_BENCH_DIR + os.sep):
        return "bench"
    if not path.startswith(repro_root + os.sep):
        return "stdlib"
    rel = os.path.relpath(path, repro_root)[: -len(".py")]
    module = rel.replace(os.sep, ".").removesuffix(".__init__")
    if module == "system" and funcname in TRANSPORT_FUNCS:
        return "system.transport"
    best = ""
    for layer in LAYERS:
        if (module == layer or module.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    return best or module.split(".")[0]


def layer_table(profile: cProfile.Profile, repro_root: str) -> dict:
    """``{layer: {"self_s", "calls"}}`` from one profile, plus its total.

    Every profile entry lands in exactly one layer, so the layers' self
    times sum to the profile's total self time.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]

    def layer_of(func) -> str:
        filename, _line, name = func
        if filename == "~":
            return "builtins"
        return module_layer(filename, name, repro_root)

    table: dict[str, dict] = {}

    def add(layer: str, self_s: float, calls: int) -> None:
        row = table.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += self_s
        row["calls"] += calls

    total = 0.0
    for func, (_cc, ncalls, tt, _ct, callers) in stats.items():
        total += tt
        if func[0] != "~":
            add(layer_of(func), tt, ncalls)
            continue
        if "heapq" in func[2]:
            add("sim.engine", tt, ncalls)
            continue
        # a builtin: split its self time across its callers' layers
        assigned = 0.0
        for caller, (caller_calls, _cc, caller_tt, _ct) in callers.items():
            add(layer_of(caller), caller_tt, caller_calls)
            assigned += caller_tt
        add("builtins", tt - assigned, 0)
    return {"total_s": total, "layers": table}


class Tracer:
    """Span recorder plus profiler for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.active = False
        self.profile = cProfile.Profile()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span (a no-op while the tracer is inactive)."""
        if not self.active:
            yield
            return
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def install(self) -> None:
        """Wrap every :data:`SPAN_POINTS` call, each function once."""
        for module_name, attr, name in SPAN_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = (inspect.getattr_static(owner, leaf, None)
                   if owner is not None else None)
            if raw is None:
                raise LookupError(
                    f"span point {module_name}.{attr} not found: update "
                    f"SPAN_POINTS in {os.path.basename(__file__)}")
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
                else None
            fn = raw.__func__ if kind is not None else raw
            if getattr(fn, "__bench_span__", None) is not None:
                continue
            wrapper = self._wrapped(fn, name)
            setattr(owner, leaf, kind(wrapper) if kind is not None else wrapper)

    def _wrapped(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__bench_span__ = name  # type: ignore[attr-defined]
        return wrapper

    def span_summary(self) -> dict:
        """Inclusive seconds and call count per span name."""
        out = {name: {"total_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        for record in self.spans:
            row = out.setdefault(record["name"], {"total_s": 0.0, "calls": 0})
            row["total_s"] += record["end"] - record["start"]
            row["calls"] += 1
        return out
