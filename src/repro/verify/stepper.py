"""Drive a real ``System`` through the model checker's op alphabet.

The checker never snapshots simulator state (the event queue, FCFS
ledgers and extension closures make that fragile); instead every
explored state is *reconstructed* by replaying its operation sequence
on a fresh :class:`~repro.system.System` through this stepper.  Each
operation is issued against one node's :class:`CacheController` public
API -- no :class:`Processor` objects -- and the event queue is then run
to empty one event at a time, asserting the mid-flight-safe invariant
subset (:func:`~repro.core.invariants.check_safety`) between events
and the full battery (:func:`~repro.core.invariants.check_all`) at the
resulting quiescent state.

Block geometry: logical block ``i`` maps to block number
``129 * i`` -- one page plus one block apart, so every logical block
lives on a *distinct page* (distinct home under round-robin placement)
and in a *distinct set* of the deliberately tiny 4-set SLC.  The
replacement-forcing ``conflict`` op reads block ``129 * 4``, which
shares SLC set 0 with logical block 0 but lives on its own page.
Prefetching combos will additionally touch sequential neighbours of
these blocks (the ``speculative_reads`` trait); that only widens the
explored space.

Lock/unlock ops are *guarded*: ``lock(n)`` is only enabled when the
lock is free and ``unlock(n)`` only when node ``n`` holds it, so every
enabled sequence runs to quiescence (an acquire against a held lock
parks the requester in the home's queue with no completion event --
a legal protocol state, but one the stepper cannot distinguish from a
lost grant).  The lock-table state is part of the canonical state, so
the guards never hide reachable protocol states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import CacheConfig, Consistency, ProtocolConfig, SystemConfig
from repro.core.invariants import check_all, check_safety
from repro.core.states import CacheState
from repro.system import System
from repro.verify.coverage import CoverageTracker

#: logical-block spacing: one 4-KB page (128 blocks) + 1, giving each
#: logical block a distinct home *and* a distinct SLC set.
BLOCK_STRIDE = 129
#: sets in the deliberately bounded verification SLC.
SLC_SETS = 4
#: block number of the replacement-forcing conflict access (SLC set 0,
#: same as logical block 0, but a different page).
CONFLICT_BLOCK = BLOCK_STRIDE * SLC_SETS
#: block number of the single lock variable.
LOCK_BLOCK = BLOCK_STRIDE * SLC_SETS * 2

#: an operation: ("read", node, blk) / ("write", node, blk) /
#: ("conflict", node) / ("lock", node) / ("unlock", node).
Op = tuple


class VerifyDeadlock(AssertionError):
    """An operation failed to complete although the event queue drained."""


@dataclass(frozen=True)
class VerifyConfig:
    """One model-checking scenario (machine shape + exploration bounds)."""

    n_nodes: int = 2
    n_blocks: int = 1
    depth: int = 6
    #: protocol-combination name ("BASIC", "P+CW+M", "p,cw", ...).
    extensions: str = "BASIC"
    consistency: Consistency = Consistency.RC
    #: stop exploring after this many distinct canonical states.
    max_states: int = 50_000
    #: event budget for settling a single operation (livelock guard).
    events_per_op: int = 50_000
    #: dedupe states modulo node renaming (see :mod:`repro.verify.canon`).
    symmetry: bool = True

    def protocol(self) -> ProtocolConfig:
        return ProtocolConfig.from_name(self.extensions)

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            n_procs=self.n_nodes,
            consistency=self.consistency,
            protocol=self.protocol(),
            cache=CacheConfig(slc_size=SLC_SETS * 32),
        )

    @property
    def sync_ops(self) -> bool:
        """Lock/unlock belong to the alphabet (sync-sensitive combo)."""
        return self.protocol().has_trait("sync_sensitive")

    def describe(self) -> str:
        name = self.protocol().name
        return (
            f"{name} / {self.consistency.value} "
            f"({self.n_nodes} nodes x {self.n_blocks} blocks, "
            f"depth {self.depth})"
        )


@dataclass
class Stepper:
    """Replays op sequences on a fresh system, checking as it goes."""

    cfg: VerifyConfig
    coverage: CoverageTracker | None = None
    system: System = field(init=False)

    def __post_init__(self) -> None:
        self.system = System(self.cfg.system_config())
        if self.coverage is not None:
            self.coverage.instrument(self.system)
        self._sc = self.cfg.consistency is Consistency.SC
        bsize = self.cfg.system_config().cache.block_size
        self._block_addrs = [
            BLOCK_STRIDE * i * bsize for i in range(self.cfg.n_blocks)
        ]
        self._conflict_addr = CONFLICT_BLOCK * bsize
        self._lock_addr = LOCK_BLOCK * bsize
        self._lock_home = self.system.nodes[
            self.system.amap.home_of_block(LOCK_BLOCK)
        ].home

    # -- state queries (valid at quiescence) ----------------------------

    def lock_holder(self) -> int | None:
        return self._lock_home.locks.holder_of(LOCK_BLOCK)

    def enabled_ops(self) -> list[Op]:
        """The alphabet restricted to ops that can complete from here."""
        ops: list[Op] = []
        for n in range(self.cfg.n_nodes):
            for b in range(self.cfg.n_blocks):
                ops.append(("read", n, b))
                ops.append(("write", n, b))
            ops.append(("conflict", n))
        if self.cfg.sync_ops:
            holder = self.lock_holder()
            if holder is None:
                ops += [("lock", n) for n in range(self.cfg.n_nodes)]
            else:
                ops.append(("unlock", holder))
        return ops

    # -- op application --------------------------------------------------

    def run(self, ops: tuple[Op, ...] | list[Op]) -> System:
        """Apply every op in sequence; returns the quiescent system."""
        for op in ops:
            self.apply(op)
        return self.system

    def apply(self, op: Op) -> None:
        kind, node = op[0], op[1]
        cache = self.system.nodes[node].cache
        if kind in ("read", "write"):
            addr = self._block_addrs[op[2]]
        elif kind == "conflict":
            addr = self._conflict_addr
        elif kind in ("lock", "unlock"):
            addr = self._lock_addr
        else:
            raise ValueError(f"unknown verify op {op!r}")
        if self.coverage is not None:
            self.coverage.record_op(self._line_state(cache, addr), kind)

        if kind in ("read", "conflict"):
            done: list[int] = []
            cache.read(addr, lambda: done.append(1))
            self._settle(op)
            if not done:
                raise VerifyDeadlock(f"read never completed: op {op!r}")
        elif kind == "write":
            if self._sc:
                done = []
                cache.write_blocking(addr, lambda: done.append(1))
                self._settle(op)
                if not done:
                    raise VerifyDeadlock(f"write never performed: op {op!r}")
            else:
                if not cache.can_buffer_write():
                    raise VerifyDeadlock(
                        f"FLWB full at quiescence before op {op!r}"
                    )
                cache.buffer_write(addr)
                self._settle(op)
                if len(cache.flwb):
                    raise VerifyDeadlock(f"FLWB not drained: op {op!r}")
        elif kind == "lock":
            if self.lock_holder() is not None:
                raise ValueError(
                    f"invalid sequence: {op!r} while lock is held"
                )
            done = []
            cache.acquire(addr, lambda: done.append(1))
            self._settle(op)
            if not done:
                raise VerifyDeadlock(f"lock never granted: op {op!r}")
        else:  # unlock
            if self.lock_holder() != node:
                raise ValueError(
                    f"invalid sequence: {op!r} but lock holder is "
                    f"{self.lock_holder()}"
                )
            done = []
            cache.release(addr, on_performed=lambda: done.append(1))
            self._settle(op)
            if not done:
                raise VerifyDeadlock(f"release never performed: op {op!r}")
        check_all(self.system)

    def _settle(self, op: Op) -> None:
        """Run the queue dry, checking safety between every two events."""
        sim = self.system.sim
        budget = self.cfg.events_per_op
        fired = 0
        while sim.step():
            check_safety(self.system)
            fired += 1
            if fired > budget:
                raise VerifyDeadlock(
                    f"event budget {budget} exhausted settling op {op!r} "
                    "(livelock?)"
                )

    @staticmethod
    def _line_state(cache, addr: int) -> str:
        line = cache.slc.lookup(addr // cache._bsize)
        return CacheState.INVALID.name if line is None else line.state.name
