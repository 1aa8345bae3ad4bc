"""Seeded long-run invariant fuzzer over randomized configurations.

The model checker is exhaustive but tiny; the fuzzer is the opposite
arm of the same tong: long randomized reference streams (5k+ ops per
processor) on randomized machine configurations spanning every knob
the library exposes -- protocols, consistency models, bounded caches,
small write buffers, mesh links, competitive thresholds, initial
prefetch degrees -- with the full invariant battery
checked after the run.  ``tests/test_fuzz_matrix.py`` reuses
:func:`fuzz_stream` / :func:`random_config` for its shorter CI sweep.

A failing trial is shrunk by greedy chunked deletion over the
per-processor streams (:func:`shrink_streams`), preserving each
stream's trailing barrier so a shrunk candidate can still terminate,
and reported as a replayable :class:`FuzzFailure`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.config import (
    ALL_PROTOCOLS,
    SC_PROTOCOLS,
    CacheConfig,
    CompetitiveConfig,
    Consistency,
    NetworkConfig,
    NetworkKind,
    PrefetchConfig,
    ProtocolConfig,
    SystemConfig,
)
from repro.core.invariants import InvariantViolation, check_all
from repro.sim.engine import SimulationError
from repro.system import System

#: one processor's reference stream: (op, arg) tuples.
Stream = list[tuple]

ProgressFn = Callable[[str], None]


def fuzz_stream(pid: int, seed: int, nops: int = 220) -> Stream:
    """A deterministic random reference stream (reads/writes/locks)."""
    rng = random.Random(seed)
    ops: Stream = []
    in_cs = False
    lock = 0x10000
    for _ in range(nops):
        r = rng.random()
        if in_cs and r < 0.15:
            ops.append(("release", lock))
            in_cs = False
            continue
        if not in_cs and r < 0.05:
            lock = 0x10000 + rng.randrange(3) * 4096
            ops.append(("acquire", lock))
            in_cs = True
            continue
        a = rng.randrange(48) * 32 + rng.randrange(8) * 4
        ops.append(("read", a) if r < 0.6 else ("write", a))
        if rng.random() < 0.3:
            ops.append(("think", rng.randrange(1, 8)))
    if in_cs:
        ops.append(("release", lock))
    ops.append(("barrier", 0))
    return ops


def random_config(rng: random.Random) -> SystemConfig:
    """A randomized machine configuration spanning every exposed knob."""
    model = rng.choice([Consistency.RC, Consistency.RC, Consistency.SC])
    protos = ALL_PROTOCOLS if model is Consistency.RC else SC_PROTOCOLS
    proto = ProtocolConfig.from_name(rng.choice(protos))
    if proto.competitive_update and rng.random() < 0.4:
        proto = replace(
            proto, competitive_params=CompetitiveConfig(threshold=2)
        )
    if proto.prefetch and rng.random() < 0.3:
        proto = replace(
            proto, prefetch_params=PrefetchConfig(initial_degree=4)
        )
    return SystemConfig(
        n_procs=rng.choice([4, 9, 16]),
        consistency=model,
        protocol=proto,
        cache=CacheConfig(
            slc_size=rng.choice([None, 1024, 2048]),
            slwb_entries=rng.choice([2, 4, 16]),
            flwb_entries=rng.choice([1, 4, 8]),
        ),
        network=(
            NetworkConfig(
                kind=NetworkKind.MESH,
                link_width_bits=rng.choice([16, 32, 64]),
            )
            if rng.random() < 0.4
            else NetworkConfig()
        ),
    )


def _run_trial(
    cfg: SystemConfig, streams: list[Stream], max_events: int
) -> Exception | None:
    """Run one trial; returns the failure exception, or None."""
    try:
        system = System(cfg)
        system.run([list(s) for s in streams], max_events=max_events)
        check_all(system)
    except (InvariantViolation, SimulationError, ValueError) as exc:
        # ValueError: a shrunk candidate may release a lock it never
        # acquired; the lock table refuses that
        return exc
    return None


def shrink_streams(
    cfg: SystemConfig,
    streams: list[Stream],
    failure_type: type,
    max_events: int,
    max_runs: int = 150,
) -> list[Stream]:
    """Chunked greedy deletion over every stream while the failure holds.

    Each stream's final op (its terminating barrier) is never deleted,
    so a candidate can still run to completion; a candidate failing
    with a *different* exception type than the original counts as not
    failing.  ``max_runs`` bounds the replay budget (each replay is a
    full simulation).
    """
    runs = 0

    def still_fails(candidate: list[Stream]) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        exc = _run_trial(cfg, candidate, max_events)
        return type(exc) is failure_type

    current = [list(s) for s in streams]
    for pid in range(len(current)):
        chunk = max(1, (len(current[pid]) - 1) // 2)
        while chunk >= 1 and runs < max_runs:
            i = 0
            changed = False
            # never touch the trailing barrier
            while i < len(current[pid]) - 1:
                candidate = [list(s) for s in current]
                del candidate[pid][i:min(i + chunk, len(candidate[pid]) - 1)]
                if still_fails(candidate):
                    current = candidate
                    changed = True
                else:
                    i += chunk
            if chunk == 1 and not changed:
                break
            chunk //= 2
    return current


@dataclass
class FuzzFailure:
    """One failing fuzz trial, with its shrunk reproduction."""

    trial: int
    seed: int
    config: SystemConfig
    streams: list[Stream]
    error: str

    def replay(self) -> None:
        """Re-run the shrunk reproduction (raises the failure)."""
        system = System(self.config)
        system.run([list(s) for s in self.streams])
        check_all(system)


@dataclass
class FuzzResult:
    """Outcome of a fuzzing campaign."""

    trials: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    seed: int = 0,
    trials: int = 5,
    nops: int = 5000,
    max_events: int = 80_000_000,
    shrink: bool = True,
    progress: ProgressFn | None = None,
) -> FuzzResult:
    """Run ``trials`` randomized long-stream trials from ``seed``."""
    result = FuzzResult(trials=trials)
    for trial in range(trials):
        trial_seed = seed * 1_000_003 + trial
        rng = random.Random(trial_seed)
        cfg = random_config(rng)
        streams = [
            fuzz_stream(i, trial_seed * 977 + i, nops=nops)
            for i in range(cfg.n_procs)
        ]
        exc = _run_trial(cfg, streams, max_events)
        if exc is None:
            if progress is not None:
                progress(
                    f"trial {trial}: ok -- {cfg.protocol.name} / "
                    f"{cfg.consistency.value}, "
                    f"{cfg.n_procs} procs, {nops} ops/proc"
                )
            continue
        if shrink:
            streams = shrink_streams(cfg, streams, type(exc), max_events)
            exc = _run_trial(cfg, streams, max_events) or exc
        failure = FuzzFailure(
            trial=trial,
            seed=trial_seed,
            config=cfg,
            streams=streams,
            error=f"{type(exc).__name__}: {exc}",
        )
        result.failures.append(failure)
        if progress is not None:
            total = sum(len(s) for s in streams)
            progress(
                f"trial {trial}: FAILED ({failure.error}); "
                f"shrunk to {total} ops"
            )
    return result
