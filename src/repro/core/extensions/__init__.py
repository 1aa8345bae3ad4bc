"""Composable protocol extensions (the paper's P, CW and M).

Importing this package registers the built-in extensions' metadata
without importing their implementations, which load on the first
pipeline that enables them; everything user-facing re-exports from
here:

* :class:`ProtocolExtension` / :class:`ExtensionPipeline` -- the hook
  interface and its dispatcher (see :mod:`repro.core.extensions.base`
  for the full hook catalogue),
* the registry -- :func:`register_extension`, :func:`extension_info`,
  :func:`registered_extensions`, :func:`resolve_names`,
  :func:`build_pipeline`, :class:`UnknownExtensionError`,
* the built-in extensions -- :class:`PrefetchExtension` (P),
  :class:`CompetitiveExtension` (CW) and :class:`MigratoryExtension`
  (M).

``docs/protocol.md`` walks through writing a new extension.
"""

from repro.config import CompetitiveConfig, PrefetchConfig
from repro.core.extensions.base import ExtensionPipeline, ProtocolExtension
from repro.core.extensions.registry import (
    KNOWN_TRAITS,
    ExtensionInfo,
    RegistryError,
    UnknownExtensionError,
    build_pipeline,
    extension_info,
    register_extension,
    registered_extensions,
    resolve_names,
    validate_registry,
)

# the built-ins name their classes, which load on first use: a
# pipeline that enables one, or this package's export of the class
register_extension(ExtensionInfo(
    name="P",
    order=10,
    description="adaptive sequential prefetching (paper §3.1)",
    factory="repro.core.extensions.prefetch_ext:PrefetchExtension",
    enabled=lambda proto: proto.prefetch,
    config_cls=PrefetchConfig,
    traits=frozenset({"prefetch", "speculative_reads"}),
))
register_extension(ExtensionInfo(
    name="CW",
    order=20,
    description="competitive update + write cache (paper §3.3/§3.4)",
    factory="repro.core.extensions.competitive_ext:CompetitiveExtension",
    enabled=lambda proto: proto.competitive_update,
    config_cls=CompetitiveConfig,
    traits=frozenset({"requires_rc", "sync_sensitive"}),
))
register_extension(ExtensionInfo(
    name="M",
    order=30,
    description="migratory-sharing optimization (paper §3.2/§3.4)",
    factory="repro.core.extensions.migratory_ext:MigratoryExtension",
    enabled=lambda proto: proto.migratory,
))

# lint the assembled registry: order uniqueness can only be judged
# once every built-in has registered, so the check lives here rather
# than in ``register_extension``.
validate_registry()


def __getattr__(name: str):
    for info in registered_extensions():
        if isinstance(info.factory, str) and info.factory.endswith(":" + name):
            globals()[name] = info.build
            return info.build
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "KNOWN_TRAITS",
    "CompetitiveExtension",
    "ExtensionInfo",
    "ExtensionPipeline",
    "MigratoryExtension",
    "PrefetchExtension",
    "ProtocolExtension",
    "RegistryError",
    "UnknownExtensionError",
    "build_pipeline",
    "extension_info",
    "register_extension",
    "registered_extensions",
    "resolve_names",
    "validate_registry",
]
