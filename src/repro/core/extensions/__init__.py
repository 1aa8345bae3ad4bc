"""Composable protocol extensions (the paper's P, CW and M).

Importing this package registers the built-in extensions; everything
user-facing re-exports from here:

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

# importing the built-in extension modules registers them
from repro.core.extensions.prefetch_ext import PrefetchExtension
from repro.core.extensions.competitive_ext import CompetitiveExtension
from repro.core.extensions.migratory_ext import MigratoryExtension

# lint the assembled registry: order uniqueness can only be judged
# once every built-in has registered, so the check lives here rather
# than in ``register_extension``.
validate_registry()

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
