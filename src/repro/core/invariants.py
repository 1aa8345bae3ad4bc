"""Coherence-invariant checker.

Validates that a quiescent system (no in-flight transactions) is in a
globally coherent state.  Used by the test suite after every
integration run and by the hypothesis-based protocol fuzzer; it is
also a handy debugging aid for protocol extensions.

Checked invariants:

* **SWMR** -- at most one cache holds a block in an exclusive state
  (DIRTY / MIG_CLEAN), and then no other cache holds it at all;
* **directory-owner agreement** -- a MODIFIED directory entry names
  exactly the cache holding the exclusive copy;
* **directory-sharer conservativeness** -- every cached copy is known
  to the directory.  The sharer set may briefly be a *superset* of
  the true holders (an invalidation racing a read reply drops the
  line after the home recorded the reader), so only *missing* holders
  are a violation;
* **inclusion** -- every block valid in a node's FLC is valid in its
  SLC;
* **quiescence** -- no pending reads/writes/flushes remain in any
  cache controller and no transactions remain at any home.

Two granularities are exposed:

* :func:`check_all` -- the full battery, valid only at quiescence
  (directory agreement assumes no transaction is mid-flight);
* :func:`check_safety` -- the mid-flight-safe subset (SWMR +
  inclusion), which must hold *between any two simulator events*, even
  while transactions are in transit.  The model checker in
  :mod:`repro.verify` calls it after every event it steps through.
"""

from __future__ import annotations

from repro.core.states import CacheState, MemoryState
from repro.system import System


class InvariantViolation(AssertionError):
    """A coherence invariant does not hold."""


def check_quiescent(system: System) -> None:
    """All controllers idle: nothing pending anywhere."""
    for node in system.nodes:
        cache = node.cache
        if cache.outstanding_requests:
            raise InvariantViolation(
                f"node {node.node_id}: {cache.outstanding_requests} "
                "outstanding cache requests at quiescence"
            )
        if len(cache.flwb):
            raise InvariantViolation(
                f"node {node.node_id}: FLWB not drained at quiescence"
            )
        home = node.home
        if home._xacts:
            raise InvariantViolation(
                f"home {node.node_id}: transactions {list(home._xacts)} "
                "still active at quiescence"
            )


def check_inclusion(system: System) -> None:
    """FLC contents are a subset of SLC contents on every node."""
    for node in system.nodes:
        slc_blocks = {ln.block for ln in node.cache.slc.resident_lines()}
        for block in node.cache.flc.resident_blocks():
            if block not in slc_blocks:
                raise InvariantViolation(
                    f"node {node.node_id}: FLC holds block {block} "
                    "absent from the SLC (inclusion violated)"
                )


def _holders(system: System, block: int) -> dict[int, CacheState]:
    holders: dict[int, CacheState] = {}
    for node in system.nodes:
        line = node.cache.slc.lookup(block)
        if line is not None:
            holders[node.node_id] = line.state
    return holders


def _check_swmr_block(block: int, holders: dict[int, CacheState]) -> None:
    exclusive = [
        n for n, st in holders.items()
        if st in (CacheState.DIRTY, CacheState.MIG_CLEAN)
    ]
    if len(exclusive) > 1:
        raise InvariantViolation(
            f"block {block}: multiple exclusive holders {exclusive}"
        )
    if exclusive and len(holders) > 1:
        raise InvariantViolation(
            f"block {block}: exclusive holder {exclusive[0]} "
            f"coexists with copies at {sorted(holders)}"
        )


def check_swmr(system: System) -> None:
    """Single-writer/multiple-readers over every block cached anywhere.

    Unlike :func:`check_coherence` this sweeps the *caches*, not the
    directories, so it needs no directory state and holds at every
    instant of a run -- not just at quiescence.
    """
    holders_by_block: dict[int, dict[int, CacheState]] = {}
    for node in system.nodes:
        for line in node.cache.slc.resident_lines():
            holders_by_block.setdefault(line.block, {})[node.node_id] = (
                line.state
            )
    for block, holders in holders_by_block.items():
        _check_swmr_block(block, holders)


def check_safety(system: System) -> None:
    """The mid-flight-safe invariant subset (SWMR + inclusion).

    Both properties must hold between any two simulator events, even
    while coherence transactions are in flight; the directory-agreement
    and quiescence checks do not, so they stay in :func:`check_all`.
    """
    check_swmr(system)
    check_inclusion(system)


def check_coherence(system: System) -> None:
    """SWMR + directory agreement for every block with directory state,
    plus a reverse sweep: every resident SLC line is known to its home
    directory (a cached block the directory dropped -- or never
    recorded -- is a protocol bug the forward sweep cannot see)."""
    for node in system.nodes:
        cache = node.cache
        for line in cache.slc.resident_lines():
            home = system.nodes[system.amap.home_of_block(line.block)].home
            if line.block not in home.directory:
                raise InvariantViolation(
                    f"node {node.node_id}: SLC holds block {line.block} "
                    f"({line.state.value}) unknown to its home directory "
                    f"at node {home.node_id}"
                )
    for node in system.nodes:
        home = node.home
        for block in home.directory.known_blocks():
            entry = home.directory.entry(block)
            holders = _holders(system, block)
            exclusive = [
                n for n, st in holders.items()
                if st in (CacheState.DIRTY, CacheState.MIG_CLEAN)
            ]
            _check_swmr_block(block, holders)
            if entry.state is MemoryState.MODIFIED:
                if not exclusive or exclusive[0] != entry.owner:
                    raise InvariantViolation(
                        f"block {block}: directory says MODIFIED at "
                        f"{entry.owner} but exclusive holders are {exclusive}"
                    )
            else:
                if exclusive:
                    raise InvariantViolation(
                        f"block {block}: directory says CLEAN but node "
                        f"{exclusive[0]} holds it exclusively"
                    )
                unknown = set(holders) - entry.sharers
                if unknown:
                    raise InvariantViolation(
                        f"block {block}: caches {sorted(unknown)} hold "
                        f"copies unknown to the directory {sorted(entry.sharers)}"
                    )


def check_all(system: System) -> None:
    """Run every invariant check (call after :meth:`System.run`)."""
    check_quiescent(system)
    check_inclusion(system)
    check_coherence(system)
