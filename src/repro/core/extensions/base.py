"""Protocol-extension interface: :class:`ProtocolExtension` and
:class:`ExtensionPipeline`.

The paper's thesis is that P, M and CW are *modular* extensions of one
BASIC write-invalidate protocol whose gains compose.  This module is
that thesis as an architecture: the base protocol lives in
:mod:`repro.core.cache_ctrl` (requester side) and :mod:`repro.core.home`
(directory side), and every extension touchpoint is a *lifecycle hook*
dispatched through a per-node :class:`ExtensionPipeline`.

An extension subclasses :class:`ProtocolExtension` and overrides only
the hooks it needs; every default is a no-op, so the base protocol with
an empty pipeline behaves (and costs) exactly like a hard-wired BASIC
controller.  Hooks never schedule simulator events themselves unless
the equivalent inline code did, which keeps event counts identical and
simulations deterministic.

Hook catalogue
--------------

Cache side (first argument is the
:class:`~repro.core.cache_ctrl.CacheController`):

===========================  ====================================================
``attach_cache(ctrl)``       create per-cache state (engines, write caches)
``on_read_hit(ctrl, line)``  a demand read hit a valid SLC line
``absorbs_read(...)``        may the extension satisfy this read itself?
``defers_read(...)``         park a read until extension traffic settles
``on_read_merged(...)``      a demand read joined an in-flight request
``on_demand_miss(...)``      a demand read missed (before SLWB allocation)
``on_miss_issued(...)``      the miss request left for the home node
``on_write(...)``            may the extension absorb this write?
``on_fill(ctrl, line)``      a line was just inserted into the SLC
``on_evict(ctrl, victim)``   a line is being victimized
``on_invalidate(...)``       an INV arrived; return dirty words to piggyback
``on_release(ctrl, marker)`` a release/barrier is arming (RCpc sync point)
``cache_outstanding(ctrl)``  in-flight extension requests (quiescence checks)
``cache_handlers(ctrl)``     claim cache-bound message types: type -> handler
===========================  ====================================================

Home side (first argument is the
:class:`~repro.core.home.HomeController`):

==================================  =============================================
``attach_home(home)``               create per-home state
``grants_exclusive_read(...)``      serve this read miss with an exclusive copy?
``on_ownership_requested(...)``     an OWN_REQ/RDX_REQ reached a CLEAN block
``on_ownership_granted(...)``       ownership was just granted to a requester
``on_exclusive_read_transfer(...)`` an exclusive read grant completed (XFER_ACK)
``absorb_ack_payload(...)``         charge memory for piggybacked payload
``home_request_handlers(home)``     claim request types: type -> handler
``home_ack_handlers(home)``         claim transaction kinds: kind -> ack handler
==================================  =============================================

``stats_hooks()`` reports extension-private *counters* (summable ints)
for CLI/report surfaces.

Dispatch is deterministic: extensions run in registry order (see
:mod:`repro.core.extensions.registry`), and decision hooks
(``on_write``, ``absorbs_read``, ...) are first-non-default-wins.
A hook that fewer than two extensions override is bound straight to
that extension's method (or to the no-op default) when the pipeline
is built, so calling it costs no dispatch loop.

Message dispatch is a table per controller, filled once at build: the
three ``*_handlers`` hooks add an extension's message types and
transaction kinds to the base protocol's own.  The transport then
indexes straight to the final handler; a type or kind claimed twice
is a ``ValueError`` when the machine is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids cycles
    from repro.core.cache_ctrl import CacheController, SyncMarker, _PendingRead
    from repro.core.directory import DirectoryEntry
    from repro.core.home import HomeController, Xact
    from repro.core.messages import Message, MsgType
    from repro.mem.slc import CacheLine

    #: message-table entries (see the ``*_handlers`` hooks)
    CacheHandler = Callable[[Message, int], None]
    RequestHandler = Callable[[Message, DirectoryEntry, int], None]
    AckHandler = Callable[[Message, Xact, DirectoryEntry, int], None]


class ProtocolExtension:
    """One protocol extension; every hook defaults to a no-op.

    Subclasses set :attr:`name` (the registry key, e.g. ``"P"``) and
    override the hooks they need.  One instance serves one node: it is
    attached to that node's cache controller and home controller and
    may keep per-node state on ``self``.
    """

    #: canonical registry name, e.g. ``"P"``, ``"M"``, ``"CW"``.
    name: str = "?"

    # -- wiring ---------------------------------------------------------

    def attach_cache(self, ctrl: "CacheController") -> None:
        """The node's cache controller adopted this extension."""

    def attach_home(self, home: "HomeController") -> None:
        """The node's home controller adopted this extension."""

    # -- cache (requester) side -----------------------------------------

    def on_read_hit(self, ctrl: "CacheController", line: "CacheLine") -> None:
        """A demand read hit ``line`` in the SLC."""

    def absorbs_read(self, ctrl: "CacheController", block: int) -> bool:
        """Return True to satisfy a demand read from extension state."""
        return False

    def defers_read(
        self,
        ctrl: "CacheController",
        block: int,
        on_done: Callable[[], None],
        t0: int,
    ) -> bool:
        """Return True to park a demand read until extension traffic
        for ``block`` settles; the extension must later re-enter it via
        :meth:`CacheController.retry_read`."""
        return False

    def on_read_merged(
        self, ctrl: "CacheController", pending: "_PendingRead"
    ) -> None:
        """A demand read joined the in-flight request ``pending``."""

    def on_demand_miss(self, ctrl: "CacheController", block: int) -> None:
        """A demand read missed (called before SLWB allocation)."""

    def on_miss_issued(self, ctrl: "CacheController", block: int) -> None:
        """The demand-miss request for ``block`` left for the home."""

    def on_write(
        self,
        ctrl: "CacheController",
        block: int,
        word: int,
        line: "CacheLine | None",
    ) -> bool | None:
        """Offer the extension a draining write to a non-exclusive block.

        Return True when absorbed, False to retry when the SLWB has
        room, or None to let the base ownership path (or the next
        extension) handle it.
        """
        return None

    def on_fill(self, ctrl: "CacheController", line: "CacheLine") -> None:
        """``line`` was just inserted into the SLC."""

    def on_evict(self, ctrl: "CacheController", victim: "CacheLine") -> None:
        """``victim`` is being removed from the SLC."""

    def on_invalidate(self, ctrl: "CacheController", block: int) -> int:
        """An INV for ``block`` arrived; drop extension state and return
        the number of dirty words to piggyback on the INV_ACK."""
        return 0

    def on_release(self, ctrl: "CacheController", marker: "SyncMarker") -> None:
        """A release/barrier is arming: register (and count, via
        ``marker.outstanding``) everything it must wait for."""

    def cache_outstanding(self, ctrl: "CacheController") -> int:
        """In-flight extension requests (for quiescence checks)."""
        return 0

    def cache_handlers(
        self, ctrl: "CacheController"
    ) -> "dict[MsgType, CacheHandler]":
        """Cache-bound message types this extension owns, each mapped
        to its ``handler(msg, t)``.  Called once, after
        :meth:`attach_cache`."""
        return {}

    # -- home (directory) side ------------------------------------------

    def home_request_handlers(
        self, home: "HomeController"
    ) -> "dict[MsgType, RequestHandler]":
        """Home-bound request types this extension owns, each mapped
        to the ``handler(msg, entry, t)`` that consumes it against a
        stable block.  They share the base queue-on-busy serialization
        discipline.  Called once, after :meth:`attach_home`."""
        return {}

    def home_ack_handlers(
        self, home: "HomeController"
    ) -> "dict[str, tuple[MsgType, AckHandler]]":
        """Transaction kinds this extension opens (``Xact.kind``),
        each mapped to the ack type that answers it and the
        ``handler(msg, xact, entry, t)`` that consumes that ack.
        Called once, after :meth:`attach_home`."""
        return {}

    def grants_exclusive_read(
        self, home: "HomeController", entry: "DirectoryEntry", msg: "Message"
    ) -> bool:
        """Serve this read miss with an exclusive (MIG_CLEAN) copy?"""
        return False

    def on_ownership_requested(
        self, home: "HomeController", entry: "DirectoryEntry", msg: "Message"
    ) -> None:
        """An ownership request reached a CLEAN directory entry."""

    def on_ownership_granted(
        self, home: "HomeController", entry: "DirectoryEntry", req: int
    ) -> None:
        """Ownership of the block was just granted to node ``req``."""

    def on_exclusive_read_transfer(
        self, home: "HomeController", entry: "DirectoryEntry", msg: "Message"
    ) -> None:
        """An exclusive read grant completed (XFER_ACK from the old
        owner); ``msg.was_modified`` tells whether the owner wrote."""

    def absorb_ack_payload(
        self, home: "HomeController", msg: "Message", t: int
    ) -> int:
        """Charge memory for payload piggybacked on a base ack; return
        the (possibly later) time processing resumes at."""
        return t

    # -- reporting ------------------------------------------------------

    def stats_hooks(self) -> dict[str, int]:
        """Extension-private counters for reporting surfaces.  Values
        must be summable across nodes (counters, not gauges)."""
        return {}


#: hooks filtered per pipeline: dispatch walks only the extensions
#: that actually override the hook.  Defaults are pure no-ops (and
#: decision hooks return their first-non-default-wins identity), so
#: skipping non-overriders is behaviour-preserving.  A hook with at
#: most one overrider is bound straight to that method (or to the
#: default) instead of a dispatch loop.
_FILTERED_HOOKS = (
    "on_read_hit",
    "absorbs_read",
    "defers_read",
    "on_read_merged",
    "on_demand_miss",
    "on_miss_issued",
    "on_write",
    "on_fill",
    "on_evict",
    "on_invalidate",
    "on_release",
    "cache_outstanding",
    "grants_exclusive_read",
    "on_ownership_requested",
    "on_ownership_granted",
    "on_exclusive_read_transfer",
    "absorb_ack_payload",
)


#: the extension whose default hooks a pipeline binds when no
#: extension overrides them.
_NO_OP = ProtocolExtension()


class ExtensionPipeline:
    """Dispatches lifecycle hooks to extensions in deterministic order.

    The pipeline is per node: one instance is shared by the node's
    cache controller and home controller.  Iteration order equals
    construction order, which the registry fixes globally, so hook
    dispatch is deterministic and identical on every node.
    """

    def __init__(self, extensions: Sequence[ProtocolExtension] = ()) -> None:
        self.extensions: tuple[ProtocolExtension, ...] = tuple(extensions)
        self._by_name = {ext.name: ext for ext in self.extensions}
        if len(self._by_name) != len(self.extensions):
            raise ValueError(
                "duplicate extension names in pipeline: "
                f"{[e.name for e in self.extensions]}"
            )
        for hook in _FILTERED_HOOKS:
            default = getattr(ProtocolExtension, hook)
            overriders = tuple(
                ext
                for ext in self.extensions
                if getattr(type(ext), hook, default) is not default
            )
            setattr(self, "_" + hook, overriders)
            if len(overriders) < 2:
                # the instance attribute shadows the dispatch loop
                setattr(
                    self, hook, getattr(overriders[0] if overriders else _NO_OP, hook)
                )

    def __iter__(self) -> Iterator[ProtocolExtension]:
        return iter(self.extensions)

    def __len__(self) -> int:
        return len(self.extensions)

    def __bool__(self) -> bool:
        return bool(self.extensions)

    def get(self, name: str) -> ProtocolExtension | None:
        """The registered extension called ``name``, or None."""
        return self._by_name.get(name)

    # -- wiring ---------------------------------------------------------

    def attach_cache(self, ctrl: "CacheController") -> None:
        for ext in self.extensions:
            ext.attach_cache(ctrl)

    def attach_home(self, home: "HomeController") -> None:
        for ext in self.extensions:
            ext.attach_home(home)

    # -- message tables -------------------------------------------------

    def cache_handlers(self, ctrl, table: dict) -> dict:
        """``table`` (the base handlers) plus every extension's
        cache-bound message types."""
        return self._claim(table, "cache_handlers", ctrl)

    def home_request_handlers(self, home, table: dict) -> dict:
        """``table`` (the base handlers) plus every extension's
        home-bound request types."""
        return self._claim(table, "home_request_handlers", home)

    def home_ack_handlers(self, home, table: dict) -> dict:
        """``table`` (the base handlers) plus every extension's
        transaction kinds."""
        return self._claim(table, "home_ack_handlers", home)

    def _claim(self, table: dict, hook: str, owner) -> dict:
        for ext in self.extensions:
            for key, handler in getattr(ext, hook)(owner).items():
                if key in table:
                    raise ValueError(
                        f"extension {ext.name!r} claims {key!r} in {hook}, "
                        "which is already claimed"
                    )
                table[key] = handler
        return table

    # -- cache-side dispatch --------------------------------------------

    def on_read_hit(self, ctrl, line) -> None:
        for ext in self._on_read_hit:
            ext.on_read_hit(ctrl, line)

    def absorbs_read(self, ctrl, block) -> bool:
        for ext in self._absorbs_read:
            if ext.absorbs_read(ctrl, block):
                return True
        return False

    def defers_read(self, ctrl, block, on_done, t0) -> bool:
        for ext in self._defers_read:
            if ext.defers_read(ctrl, block, on_done, t0):
                return True
        return False

    def on_read_merged(self, ctrl, pending) -> None:
        for ext in self._on_read_merged:
            ext.on_read_merged(ctrl, pending)

    def on_demand_miss(self, ctrl, block) -> None:
        for ext in self._on_demand_miss:
            ext.on_demand_miss(ctrl, block)

    def on_miss_issued(self, ctrl, block) -> None:
        for ext in self._on_miss_issued:
            ext.on_miss_issued(ctrl, block)

    def on_write(self, ctrl, block, word, line) -> bool | None:
        for ext in self._on_write:
            handled = ext.on_write(ctrl, block, word, line)
            if handled is not None:
                return handled
        return None

    def on_fill(self, ctrl, line) -> None:
        for ext in self._on_fill:
            ext.on_fill(ctrl, line)

    def on_evict(self, ctrl, victim) -> None:
        for ext in self._on_evict:
            ext.on_evict(ctrl, victim)

    def on_invalidate(self, ctrl, block) -> int:
        words = 0
        for ext in self._on_invalidate:
            words += ext.on_invalidate(ctrl, block)
        return words

    def on_release(self, ctrl, marker) -> None:
        for ext in self._on_release:
            ext.on_release(ctrl, marker)

    def cache_outstanding(self, ctrl) -> int:
        return sum(ext.cache_outstanding(ctrl) for ext in self._cache_outstanding)

    # -- home-side dispatch ---------------------------------------------

    def grants_exclusive_read(self, home, entry, msg) -> bool:
        for ext in self._grants_exclusive_read:
            if ext.grants_exclusive_read(home, entry, msg):
                return True
        return False

    def on_ownership_requested(self, home, entry, msg) -> None:
        for ext in self._on_ownership_requested:
            ext.on_ownership_requested(home, entry, msg)

    def on_ownership_granted(self, home, entry, req) -> None:
        for ext in self._on_ownership_granted:
            ext.on_ownership_granted(home, entry, req)

    def on_exclusive_read_transfer(self, home, entry, msg) -> None:
        for ext in self._on_exclusive_read_transfer:
            ext.on_exclusive_read_transfer(home, entry, msg)

    def absorb_ack_payload(self, home, msg, t) -> int:
        for ext in self._absorb_ack_payload:
            t = ext.absorb_ack_payload(home, msg, t)
        return t

    # -- reporting ------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Merged ``stats_hooks`` of every extension, keys prefixed
        with the extension name (``"P.degree_increases"``)."""
        out: dict[str, int] = {}
        for ext in self.extensions:
            for key, value in ext.stats_hooks().items():
                out[f"{ext.name}.{key}"] = value
        return out
