"""Canonical global-state extraction, modulo node renaming.

The checker dedupes explored states on a hashable *canonical form* of
the quiescent machine state:

* per-cache: resident SLC lines with their protocol metadata, resident
  FLC blocks, and the CW write-cache contents;
* per-home: non-default directory entries (state, owner, sharers,
  migratory metadata);
* per-home: held locks and their waiter queues.

Node ids are canonicalized as *agents* only: a permutation renames the
caches (and every node id recorded in directory entries and lock
tables), while the block->home mapping -- and therefore the physical
directory an entry lives in -- stays fixed.  The canonical form is the
minimum over all permutations.

Soundness: nodes are architecturally identical, so two states equal
under a renaming can only differ in *which* physical node
plays which role -- e.g. whether a requester is local to a block's
home, which shifts latencies but not the protocol decisions reachable
from a quiescent state.  If that ever merged two genuinely different
states, the checker would explore fewer interleavings -- a coverage
loss, never a false violation, since every *visited* state is checked
on its own replay.  Set ``VerifyConfig.symmetry=False`` to disable the
reduction and explore with identity renaming only.
"""

from __future__ import annotations

from itertools import permutations
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.node.node import Node
    from repro.system import System

#: canonical-form type: nested tuples of primitives (hashable).
StateKey = tuple


def canonical_key(system: "System", symmetry: bool = True) -> StateKey:
    """The canonical form of ``system``'s quiescent global state."""
    n = system.cfg.n_procs
    if not symmetry or n == 1:
        return _state_under(system, tuple(range(n)))
    return min(_state_under(system, perm) for perm in permutations(range(n)))


def _state_under(system: "System", perm: tuple[int, ...]) -> StateKey:
    """The global state with agent ``i`` renamed to ``perm[i]``."""
    caches: list = [None] * len(system.nodes)
    for node in system.nodes:
        caches[perm[node.node_id]] = _cache_repr(node)
    homes = tuple(_home_repr(node, perm) for node in system.nodes)
    locks = tuple(_locks_repr(node, perm) for node in system.nodes)
    return (tuple(caches), homes, locks)


def _cache_repr(node: "Node") -> StateKey:
    cache = node.cache
    slc = tuple(
        sorted(
            (
                line.block,
                line.state.name,
                line.prefetched,
                line.comp_count,
                line.accessed_since_update,
                line.modified_since_update,
            )
            for line in cache.slc.resident_lines()
        )
    )
    flc = tuple(sorted(cache.flc.resident_blocks()))
    wcache = cache.wcache
    wc = (
        ()
        if wcache is None
        else tuple(
            sorted(
                (e.block, tuple(sorted(e.dirty_words)), e.had_copy)
                for e in wcache._entries.values()
            )
        )
    )
    return (slc, flc, wc)


def _rename(node_id: int | None, perm: tuple[int, ...]) -> int | None:
    return None if node_id is None else perm[node_id]


def _home_repr(node: "Node", perm: tuple[int, ...]) -> StateKey:
    entries = []
    for block in sorted(node.home.directory._entries):
        e = node.home.directory._entries[block]
        rec = (
            block,
            e.state.name,
            _rename(e.owner, perm),
            tuple(sorted(perm[s] for s in e.sharers)),
            e.migratory,
            _rename(e.last_writer, perm),
            _rename(e.last_updater, perm),
        )
        # a default entry (CLEAN, nobody) is observationally identical
        # to a lazily absent one; normalizing it away merges states
        # that differ only in whether a block was ever referenced.
        if rec[1:] != ("CLEAN", None, (), False, None, None):
            entries.append(rec)
    return tuple(entries)


def _locks_repr(node: "Node", perm: tuple[int, ...]) -> StateKey:
    locks = []
    for block in sorted(node.home.locks._locks):
        state = node.home.locks._locks[block]
        if not state.held and not state.queue:
            continue
        locks.append(
            (
                block,
                _rename(state.holder, perm),
                tuple(perm[w] for w in state.queue),
            )
        )
    return tuple(locks)
