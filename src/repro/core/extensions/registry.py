"""Name-keyed registry of protocol extensions.

Every composable protocol extension (the paper's P, CW and M)
registers here under its canonical short name.  The registry
is the single source of truth for

* which extension names exist (``registered_extensions``),
* their deterministic pipeline order (``ExtensionInfo.order``),
* how a :class:`~repro.config.ProtocolConfig` maps to live extension
  instances (``build_pipeline``),
* parsing/canonicalizing user-facing combination strings such as
  ``"p,cw,m"`` or ``"P+CW+M"`` (``resolve_names``).

Adding a new extension: subclass
:class:`~repro.core.extensions.base.ProtocolExtension` in its own
module and register its metadata with :func:`register_extension` in
:mod:`repro.core.extensions`, naming the class as a ``"module:Class"``
factory.  Registering imports none of the extension's code: the
class loads on the first :func:`build_pipeline` that enables it, so
parsing a protocol name loads no simulator module.
``ProtocolConfig.from_name``, the CLI ``--extensions`` flag,
``RunSpec`` hashing and ``api.compare_protocols`` all pick it up from
here.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.extensions.base import ExtensionPipeline, ProtocolExtension

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids cycles
    from repro.config import ProtocolConfig

Factory = Callable[["ProtocolConfig"], ProtocolExtension]


class UnknownExtensionError(ValueError):
    """A protocol/extension name is not in the registry."""

    def __init__(self, name: str) -> None:
        known = ", ".join(sorted(_REGISTRY))
        super().__init__(
            f"unknown protocol extension {name!r}; registered extensions: {known}"
        )
        self.name = name


class RegistryError(ValueError):
    """The extension registry's metadata is inconsistent (lint failure)."""


#: the machine-readable capability/verification traits an extension may
#: declare.  ``validate_registry`` rejects unknown names, so a typo in an
#: extension's metadata fails at import time instead of silently disabling
#: the behavior keyed on the trait.
#:
#: * ``prefetch`` -- uses the deeper SLWB budget (timing/config code);
#: * ``requires_rc`` -- invalid under sequential consistency;
#: * ``sync_sensitive`` -- has release/acquire-coupled behavior, so the
#:   model checker (:mod:`repro.verify`) adds lock/unlock operations to
#:   its alphabet when the combination is verified;
#: * ``speculative_reads`` -- issues non-demand read requests
#:   (prefetches), so verified state spaces include blocks the driving
#:   operations never named.
KNOWN_TRAITS = frozenset(
    {"prefetch", "requires_rc", "sync_sensitive", "speculative_reads"}
)


@dataclass(frozen=True)
class ExtensionInfo:
    """Registry record for one protocol extension."""

    #: canonical short name, e.g. ``"P"`` (case-insensitive on input).
    name: str
    #: pipeline position; extensions dispatch in ascending (order, name).
    order: int
    #: one-line human description for ``repro list-extensions``.
    description: str
    #: builds one per-node extension instance for a machine config:
    #: a callable, or a ``"module:attr"`` string naming one, which
    #: :attr:`build` imports on first use.
    factory: Factory | str
    #: is the extension enabled under this protocol config?
    enabled: Callable[["ProtocolConfig"], bool]
    #: dataclass holding the extension's tunables (None when none).
    config_cls: type | None = None
    #: capability tags consulted by config/timing code, e.g.
    #: ``"prefetch"`` (uses the deeper SLWB) or ``"requires_rc"``
    #: (invalid under sequential consistency).
    traits: frozenset[str] = field(default_factory=frozenset)

    @cached_property
    def build(self) -> Factory:
        """:attr:`factory`, its implementation imported on first use."""
        if not isinstance(self.factory, str):
            return self.factory
        module, _, attr = self.factory.partition(":")
        return getattr(importlib.import_module(module), attr)


_REGISTRY: dict[str, ExtensionInfo] = {}
#: ``_REGISTRY``'s values in pipeline order; rebuilt on registration.
_ORDERED: tuple[ExtensionInfo, ...] = ()


def register_extension(info: ExtensionInfo) -> ExtensionInfo:
    """Add ``info`` to the registry (module-import time)."""
    global _ORDERED
    key = info.name.upper()
    if key in _REGISTRY:
        raise ValueError(f"extension {info.name!r} registered twice")
    _REGISTRY[key] = info
    _ORDERED = tuple(sorted(_REGISTRY.values(),
                            key=lambda i: (i.order, i.name)))
    return info


def extension_info(name: str) -> ExtensionInfo:
    """The registry record for ``name`` (case-insensitive)."""
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise UnknownExtensionError(name) from None


def registered_extensions() -> tuple[ExtensionInfo, ...]:
    """All registered extensions in deterministic pipeline order."""
    return _ORDERED


def resolve_names(names: Iterable[str]) -> tuple[str, ...]:
    """Canonicalize a collection of extension names.

    Case-insensitive and deduplicating; the result is in registry
    (pipeline) order, so ``resolve_names(["m", "P"])`` yields
    ``("P", "M")`` and hashes/cache-keys stay stable regardless of how
    the user spelled the combination.
    """
    chosen = {extension_info(raw).name for raw in names}
    return tuple(i.name for i in registered_extensions() if i.name in chosen)


def validate_registry(
    registry: "dict[str, ExtensionInfo] | None" = None,
) -> None:
    """Lint the extension metadata; raise :class:`RegistryError` on rot.

    Checked properties (each with a dedicated unit test):

    * ``order`` values are unique, so the pipeline dispatch order never
      depends on the alphabetical tiebreak;
    * every declared trait is in :data:`KNOWN_TRAITS`.

    Runs against the live registry at the end of
    :mod:`repro.core.extensions` import (after every built-in has
    registered), so an extension with rotten metadata fails fast.  Tests
    pass an explicit ``registry`` mapping to exercise violation
    classes without touching the global one.
    """
    reg = _REGISTRY if registry is None else registry
    problems: list[str] = []
    by_order: dict[int, list[str]] = {}
    for key, info in reg.items():
        by_order.setdefault(info.order, []).append(key)
        for trait in sorted(info.traits):
            if trait not in KNOWN_TRAITS:
                problems.append(
                    f"extension {key!r} declares unknown trait {trait!r}; "
                    f"known traits: {sorted(KNOWN_TRAITS)}"
                )
    for order, keys in sorted(by_order.items()):
        if len(keys) > 1:
            problems.append(
                f"extensions {sorted(keys)} share pipeline order {order}"
            )
    if problems:
        raise RegistryError(
            "extension registry metadata is inconsistent:\n  - "
            + "\n  - ".join(problems)
        )


def build_pipeline(protocol: "ProtocolConfig") -> ExtensionPipeline:
    """One fresh per-node pipeline for ``protocol``.

    Instantiates every registered extension whose ``enabled`` predicate
    accepts the config, in deterministic registry order.  Each node
    gets its own pipeline (extensions hold per-node state).
    """
    return ExtensionPipeline(
        tuple(
            info.build(protocol)
            for info in registered_extensions()
            if info.enabled(protocol)
        )
    )
