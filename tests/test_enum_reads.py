"""Tripwire: the per-event code reads no enum member off its class.

Under CPython 3.11 ``EnumType`` defines a Python-level ``__getattr__``,
so every class-attribute read such as ``CacheState.DIRTY`` or
``MsgType.WC_ACK`` goes through a slow slot hook (several times the
cost of a module-global load).  The controllers, the extensions and
the transport therefore bind the members they read per event to
module constants (docs/internals.md, "Performance notes").

This test counts enum-member reads during ``System.run`` by wrapping
the enum metaclass's ``__getattribute__`` for the duration of the run
only; that works the same on CPython 3.10 to 3.12.  A new ``Enum.X``
read on a per-event path pushes the count past the bound: before the
members were bound, these cells read about one member per event.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.messages import MsgType
from repro.core.states import CacheState
from repro.sweep import RunSpec
from repro.system import System
from repro.workloads import build_workload

#: member reads allowed per fired event (set-up reads, such as the
#: processors reading the consistency model once, stay far below it)
MAX_READS_PER_EVENT = 0.05

CELLS = [("mp3d", "P+CW+M"), ("cholesky", "CW")]


@contextmanager
def counting_member_reads():
    """Count ``SomeEnum.MEMBER`` reads, keyed ``"SomeEnum.MEMBER"``."""
    meta = type(CacheState)
    own = vars(meta).get("__getattribute__")
    lookup = meta.__getattribute__
    counts: Counter[str] = Counter()

    def getattribute(cls, name):
        value = lookup(cls, name)
        if name in type.__getattribute__(cls, "_member_map_"):
            counts[f"{cls.__name__}.{name}"] += 1
        return value

    meta.__getattribute__ = getattribute
    try:
        yield counts
    finally:
        if own is None:
            del meta.__getattribute__
        else:
            meta.__getattribute__ = own


def test_the_counter_sees_member_reads():
    with counting_member_reads() as counts:
        assert CacheState.DIRTY is CacheState["DIRTY"]
        assert MsgType.WC_ACK > 0
    assert counts == {"CacheState.DIRTY": 1, "MsgType.WC_ACK": 1}
    # the wrapper is gone again
    assert "__getattribute__" not in vars(type(CacheState))


@pytest.mark.parametrize("app,protocol", CELLS, ids=["+".join(c) for c in CELLS])
def test_system_run_reads_no_enum_member_per_event(app, protocol):
    spec = RunSpec.for_run(app, protocol=protocol, n_procs=16, scale=0.05,
                           seed=1994)
    cfg = spec.to_config()
    streams = build_workload(spec.app, cfg, scale=spec.scale, seed=spec.seed)
    system = System(cfg)
    with counting_member_reads() as counts:
        system.run(streams)
    events = system.sim.events_fired
    assert events > 1_000
    reads = sum(counts.values())
    assert reads / events <= MAX_READS_PER_EVENT, (
        f"{reads} enum-member reads for {events} events; "
        f"most read: {counts.most_common(5)}"
    )
