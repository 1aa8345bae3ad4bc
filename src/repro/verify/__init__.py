"""Protocol verification: bounded model checking and invariant fuzzing.

Benchmarking shows an extension is *fast*; this package shows it is
*correct*.  Two complementary arms:

* :func:`check_model` -- exhaustive BFS over every interleaving of a
  small op alphabet (read / write / replacement-forcing conflict
  access, plus guarded lock/unlock for sync-sensitive combos) on a
  tiny machine (2-3 nodes x 1-2 blocks), with every visited quiescent
  state passing the full :mod:`repro.core.invariants` battery and the
  mid-flight-safe subset holding between individual simulator events.
  States dedupe on a canonical form modulo node renaming
  (:mod:`repro.verify.canon`); failures come back as minimized,
  replayable :class:`Counterexample` sequences.
* :func:`run_fuzz` -- seeded 5k+-op random streams on randomized full
  machine configurations, with greedy stream shrinking on failure.

``repro verify model`` / ``repro verify fuzz`` / ``repro verify
registry`` surface both on the CLI; ``docs/verification.md`` explains
how to verify a new extension before registering it.
"""

from repro.verify.canon import canonical_key
from repro.verify.coverage import CoverageTracker
from repro.verify.explorer import (
    Counterexample,
    ModelCheckResult,
    check_model,
    matrix_configs,
    registry_combos,
    verify_matrix,
)
from repro.verify.fuzz import (
    FuzzFailure,
    FuzzResult,
    fuzz_stream,
    random_config,
    run_fuzz,
)
from repro.verify.shrink import shrink_ops
from repro.verify.stepper import (
    Op,
    Stepper,
    VerifyConfig,
    VerifyDeadlock,
)

__all__ = [
    "Counterexample",
    "CoverageTracker",
    "FuzzFailure",
    "FuzzResult",
    "ModelCheckResult",
    "Op",
    "Stepper",
    "VerifyConfig",
    "VerifyDeadlock",
    "canonical_key",
    "check_model",
    "fuzz_stream",
    "matrix_configs",
    "random_config",
    "registry_combos",
    "run_fuzz",
    "shrink_ops",
    "verify_matrix",
]
