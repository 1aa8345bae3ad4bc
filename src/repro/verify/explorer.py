"""Bounded model checker: BFS over canonicalized quiescent states.

``check_model`` enumerates every interleaving of the stepper's op
alphabet up to ``depth`` operations for one :class:`VerifyConfig`:

* a state is an op *sequence* -- expansion replays it on a fresh
  :class:`~repro.verify.stepper.Stepper` (no simulator snapshots);
* every replayed op settles the machine to quiescence with the full
  invariant battery asserted (and the mid-flight-safe subset between
  individual events), so *every visited state is checked*;
* successors are deduped on the canonical state key of
  :mod:`repro.verify.canon`, which both bounds the search and makes
  the explored-state count meaningful;
* the first failing sequence is greedily shrunk
  (:mod:`repro.verify.shrink`) and returned as a replayable
  :class:`Counterexample` -- BFS order makes it a shortest violating
  sequence even before shrinking removes unneeded setup ops.

``registry_combos`` and ``verify_matrix`` run the checker across the
registry cross-product of extension combinations x consistency
models.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.config import Consistency
from repro.core.extensions import registered_extensions
from repro.core.invariants import InvariantViolation
from repro.sim.engine import SimulationError
from repro.verify.canon import StateKey, canonical_key
from repro.verify.coverage import CoverageTracker
from repro.verify.shrink import shrink_ops
from repro.verify.stepper import Op, Stepper, VerifyConfig, VerifyDeadlock

#: exception types the checker treats as a protocol violation.
VIOLATIONS = (InvariantViolation, VerifyDeadlock)

ProgressFn = Callable[[str], None]


@dataclass
class Counterexample:
    """A minimized, replayable violating op sequence."""

    config: VerifyConfig
    ops: tuple[Op, ...]
    error: str

    def replay(self) -> None:
        """Re-run the sequence on a fresh system (raises the failure)."""
        Stepper(self.config).run(self.ops)

    def describe(self) -> str:
        steps = "\n".join(f"  {i}: {op}" for i, op in enumerate(self.ops))
        return (
            f"counterexample for {self.config.describe()}:\n{steps}\n"
            f"  -> {self.error}"
        )


@dataclass
class ModelCheckResult:
    """Outcome of one bounded exploration."""

    config: VerifyConfig
    explored: int = 0
    transitions: int = 0
    depth_reached: int = 0
    truncated: bool = False
    coverage: CoverageTracker = field(default_factory=CoverageTracker)
    violation: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def summary(self) -> str:
        status = "ok" if self.ok else "VIOLATION"
        extra = " (state cap hit)" if self.truncated else ""
        return (
            f"{self.config.describe()}: {status} -- "
            f"{self.explored} states, {self.transitions} transitions, "
            f"depth {self.depth_reached}/{self.config.depth}, "
            f"{self.coverage.pairs} coverage pairs{extra}"
        )


def _sequence_fails(cfg: VerifyConfig) -> Callable[[tuple], bool]:
    def fails(ops: tuple) -> bool:
        try:
            Stepper(cfg).run(ops)
        except VIOLATIONS:
            return True
        except (ValueError, SimulationError):
            # structurally invalid after deletion (unlock without its
            # lock) or a different failure -- not the target.
            return False
        return False

    return fails


def _counterexample(cfg: VerifyConfig, ops: tuple[Op, ...]) -> Counterexample:
    shrunk = shrink_ops(ops, _sequence_fails(cfg))
    try:
        Stepper(cfg).run(shrunk)
        error = "failure did not reproduce on replay"  # pragma: no cover
    except VIOLATIONS as exc:
        error = f"{type(exc).__name__}: {exc}"
    return Counterexample(config=cfg, ops=shrunk, error=error)


def check_model(
    cfg: VerifyConfig,
    coverage: CoverageTracker | None = None,
    progress: ProgressFn | None = None,
) -> ModelCheckResult:
    """Exhaustively explore ``cfg`` to its depth bound."""
    result = ModelCheckResult(
        config=cfg, coverage=coverage if coverage is not None else CoverageTracker()
    )
    try:
        initial = Stepper(cfg, result.coverage)
    except VIOLATIONS as exc:  # pragma: no cover - defensive
        result.violation = Counterexample(cfg, (), f"{type(exc).__name__}: {exc}")
        return result
    seen: set[StateKey] = {canonical_key(initial.system, cfg.symmetry)}
    frontier: deque[tuple[tuple[Op, ...], list[Op]]] = deque(
        [((), initial.enabled_ops())]
    )
    result.explored = 1
    while frontier:
        ops, enabled = frontier.popleft()
        if len(ops) >= cfg.depth:
            continue
        for op in enabled:
            result.transitions += 1
            seq = (*ops, op)
            stepper = Stepper(cfg, result.coverage)
            try:
                system = stepper.run(seq)
            except VIOLATIONS:
                result.violation = _counterexample(cfg, seq)
                return result
            key = canonical_key(system, cfg.symmetry)
            if key in seen:
                continue
            if len(seen) >= cfg.max_states:
                result.truncated = True
                continue
            seen.add(key)
            depth = len(seq)
            if depth > result.depth_reached:
                result.depth_reached = depth
                if progress is not None:
                    progress(
                        f"depth {depth}: {len(seen)} states, "
                        f"{result.transitions} transitions"
                    )
            frontier.append((seq, stepper.enabled_ops()))
    result.explored = len(seen)
    return result


# ----------------------------------------------------------------------
# registry cross-product
# ----------------------------------------------------------------------

def registry_combos(consistency: Consistency) -> list[str]:
    """Every extension combination, from the registry.

    Includes "BASIC" (no extensions) and filters combos whose traits
    are invalid under ``consistency`` (``requires_rc`` under SC).  Names
    are joined in registry order, so each combo is its canonical
    protocol name.
    """
    infos = registered_extensions()
    combos: list[str] = []
    for mask in range(1 << len(infos)):
        chosen = [info for i, info in enumerate(infos) if mask >> i & 1]
        if consistency is Consistency.SC and any(
            "requires_rc" in info.traits for info in chosen
        ):
            continue
        combos.append("+".join(i.name for i in chosen) if chosen else "BASIC")
    return combos


def matrix_configs(
    n_nodes: int = 2,
    n_blocks: int = 1,
    depth: int = 4,
    consistencies: Iterable[Consistency] = (Consistency.RC, Consistency.SC),
    **kw,
) -> list[VerifyConfig]:
    """The full registry cross-product as :class:`VerifyConfig` list."""
    return [
        VerifyConfig(
            n_nodes=n_nodes,
            n_blocks=n_blocks,
            depth=depth,
            extensions=combo,
            consistency=consistency,
            **kw,
        )
        for consistency in consistencies
        for combo in registry_combos(consistency)
    ]


def verify_matrix(
    configs: Iterable[VerifyConfig],
    progress: ProgressFn | None = None,
) -> list[ModelCheckResult]:
    """Model-check every config; keeps going past violations."""
    results = []
    for cfg in configs:
        result = check_model(cfg)
        results.append(result)
        if progress is not None:
            progress(result.summary())
    return results
