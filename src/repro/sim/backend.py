"""Pluggable execution backends.

An :class:`ExecutionBackend` turns one run spec (any object with the
:class:`~repro.sweep.spec.RunSpec` surface: ``to_config()``, ``app``,
``scale``, ``seed``, ``workload_kw``) into a
:class:`~repro.stats.counters.MachineStats`.  Two tiers trade
fidelity against speed:

``event``
    The reference discrete-event machine (:class:`repro.system.System`).
    Every protocol transaction, bus reservation and buffer drain is a
    scheduled event.  This is the tier the golden grids and the paper
    tables are pinned to.

``replay``
    The trace-record/replay fast tier: the workload's shared-reference
    stream is recorded once (:mod:`repro.trace.refstream`) and replayed
    through the batched direct-execution timing model of
    :mod:`repro.sim.replay`.  Reference counts are exact; miss/traffic
    counters are faithful but order-sensitive; cycles are approximate
    (see ``docs/engine.md``).  Use for relative sweeps, never for
    golden/paper tables.

Backends are resolved by name through :func:`get_backend`; the name
travels inside the spec (and therefore inside its content hash), so
results produced by different tiers never collide in the sweep cache.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.config import ProtocolConfig
from repro.stats.counters import MachineStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.refstream import RefTrace, TraceStore

#: environment override for where the replay tier keeps trace files
#: (worker processes inherit it across spawn).
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: default on-disk location of recorded reference traces.
DEFAULT_TRACE_DIR = os.path.join(".repro", "traces")


def _workload_streams(spec, cfg):
    from repro.workloads import build_workload

    return build_workload(
        spec.app, cfg, scale=spec.scale, seed=spec.seed,
        **dict(spec.workload_kw),
    )


class WarmContext:
    """Per-process memo of expensive per-spec build products.

    A long-lived worker (the persistent sweep pool, the HTTP service's
    serial engine) executes many specs that share a workload: the same
    (app, n_procs, scale, seed, workload kwargs, block/page size)
    under different protocols, directories or timings.  Building the
    reference streams is deterministic in exactly those fields (the
    same identity :func:`repro.trace.refstream.workload_key` hashes),
    and the simulators only *iterate* the frozen ``Op`` lists, so one
    built workload can safely drive any number of runs.

    The context memoizes

    * built workload streams (LRU-bounded; 256-proc stream lists are
      large), keyed by the workload identity,
    * one open :class:`~repro.trace.refstream.TraceStore` per trace
      directory, and the deserialized :class:`RefTrace` per workload,
      so repeated replay-tier cells skip the file read entirely.

    Pass one to :meth:`ExecutionBackend.execute` to opt in; ``None``
    (the default) keeps the historical build-per-run behavior.
    """

    def __init__(self, max_workloads: int = 8, max_traces: int = 8) -> None:
        self.max_workloads = max_workloads
        self.max_traces = max_traces
        self._workloads: OrderedDict[str, Any] = OrderedDict()
        self._stores: dict[str, Any] = {}
        self._traces: OrderedDict[str, Any] = OrderedDict()
        self.workload_hits = 0
        self.workload_misses = 0
        self.trace_hits = 0
        self.trace_misses = 0

    def streams_for(self, spec, cfg):
        """The spec's workload streams, built at most once per identity."""
        from repro.trace.refstream import workload_key

        key = workload_key(spec)
        streams = self._workloads.get(key)
        if streams is not None:
            self.workload_hits += 1
            self._workloads.move_to_end(key)
            return streams
        self.workload_misses += 1
        streams = _workload_streams(spec, cfg)
        self._workloads[key] = streams
        while len(self._workloads) > self.max_workloads:
            self._workloads.popitem(last=False)
        return streams

    def store_for(self, trace_dir: str) -> "TraceStore":
        """One open trace store per directory."""
        store = self._stores.get(trace_dir)
        if store is None:
            from repro.trace.refstream import TraceStore

            store = self._stores[trace_dir] = TraceStore(trace_dir)
        return store

    def trace_for(self, spec, trace_dir: str) -> "RefTrace":
        """The spec's reference trace, loaded/recorded at most once."""
        from repro.trace.refstream import workload_key

        key = f"{trace_dir}:{workload_key(spec)}"
        trace = self._traces.get(key)
        if trace is not None:
            self.trace_hits += 1
            self._traces.move_to_end(key)
            return trace
        self.trace_misses += 1
        trace = self.store_for(trace_dir).get_or_record(spec)
        self._traces[key] = trace
        while len(self._traces) > self.max_traces:
            self._traces.popitem(last=False)
        return trace

    def counters(self) -> dict:
        """JSON-able hit/miss digest (folded into pool statistics)."""
        return {
            "workload_hits": self.workload_hits,
            "workload_misses": self.workload_misses,
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
        }


class ExecutionBackend(ABC):
    """One way of turning a run spec into machine statistics."""

    #: registry name, also carried in :class:`RunSpec.backend`.
    name: str = ""
    #: True when the backend is counter-for-counter identical to the
    #: event engine; False when its results carry documented tolerances.
    exact: bool = True

    @classmethod
    def validate(cls, spec) -> None:
        """Raise ``ValueError`` if this tier cannot honour ``spec``.

        Called when a :class:`~repro.sweep.spec.RunSpec` is built, so a
        tier never returns a silently wrong answer under the spec's
        cache key.  Every spec is accepted by default.
        """

    @abstractmethod
    def execute(self, spec, warm: WarmContext | None = None) -> MachineStats:
        """Run ``spec`` to completion and return its statistics.

        ``warm`` (optional) memoizes build products across calls; the
        result is identical with or without it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class EventBackend(ExecutionBackend):
    """The reference discrete-event machine."""

    name = "event"
    exact = True

    def execute(self, spec, warm: WarmContext | None = None) -> MachineStats:
        from repro.system import System

        cfg = spec.to_config()
        streams = (warm.streams_for(spec, cfg) if warm is not None
                   else _workload_streams(spec, cfg))
        return System(cfg).run(streams)


class ReplayBackend(ExecutionBackend):
    """Trace-record/replay: record the reference stream once, replay it
    through the batched timing model for every protocol/timing variant.
    """

    name = "replay"
    exact = False

    def __init__(self, trace_dir: str | os.PathLike | None = None) -> None:
        self._trace_dir = trace_dir

    @property
    def trace_dir(self) -> str:
        """Where traces live: explicit arg > $REPRO_TRACE_DIR > default."""
        if self._trace_dir is not None:
            return os.fspath(self._trace_dir)
        return os.environ.get(TRACE_DIR_ENV, DEFAULT_TRACE_DIR)

    @classmethod
    def validate(cls, spec) -> None:
        """Refuse protocols the replay model does not implement.

        :mod:`repro.sim.replay` models the paper's P, CW and M
        extensions (the dedicated :class:`ProtocolConfig` flags); any
        further registered extension lives in ``extra`` and would be
        silently ignored.
        """
        extra = ProtocolConfig.from_name(spec.protocol).extra
        if extra:
            raise ValueError(
                f"the replay backend models only the P, CW and M "
                f"extensions, not {', '.join(extra)} (protocol "
                f"{spec.protocol!r}); use the event backend"
            )

    def store(self) -> "TraceStore":
        from repro.trace.refstream import TraceStore

        return TraceStore(self.trace_dir)

    def execute(self, spec, warm: WarmContext | None = None) -> MachineStats:
        from repro.sim.replay import replay_trace

        if warm is not None:
            trace = warm.trace_for(spec, self.trace_dir)
        else:
            trace = self.store().get_or_record(spec)
        return replay_trace(spec.to_config(), trace)


#: backend registry, keyed by the name specs carry.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    EventBackend.name: EventBackend,
    ReplayBackend.name: ReplayBackend,
}

DEFAULT_BACKEND = EventBackend.name

#: valid ``RunSpec.backend`` values, in registry order.
BACKEND_NAMES = tuple(BACKENDS)


def get_backend(name: str | None = None, **kwargs) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``.

    ``None`` (or ``""``) resolves to the default event backend; extra
    keyword arguments go to the backend constructor (only ``replay``
    takes any: ``trace_dir``).
    """
    key = name or DEFAULT_BACKEND
    try:
        cls = BACKENDS[key]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {key!r}; "
            f"expected one of {', '.join(BACKEND_NAMES)}"
        ) from None
    return cls(**kwargs)
