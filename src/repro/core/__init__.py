"""The paper's contribution: BASIC directory protocol + extensions.

The base write-invalidate protocol lives in :mod:`~repro.core.cache_ctrl`
(requester side) and :mod:`~repro.core.home` (directory side); the
paper's P / CW / M extensions are composable
:class:`~repro.core.extensions.ProtocolExtension` classes dispatched
through an :class:`~repro.core.extensions.ExtensionPipeline`.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.cache_ctrl import CacheController
    from repro.core.directory import (
        Directory,
        DirectoryEntry,
        directory_bits_per_block,
    )
    from repro.core.extensions import (
        ExtensionPipeline,
        ProtocolExtension,
        build_pipeline,
        register_extension,
        registered_extensions,
    )
    from repro.core.home import HomeController
    from repro.core.messages import Message, MsgType
    from repro.core.prefetch import AdaptivePrefetcher
    from repro.core.states import CacheState, MemoryState
    from repro.core.transactions import Xact

#: exports resolved on first use, by home module.  Importing any
#: ``repro.core`` submodule runs this file first, so eager imports of
#: the controllers here would put every leaf module (``core.states``,
#: ``core.messages``) behind the controllers -- and close a cycle for
#: ``mem.slc``, which the cache controller imports and which needs
#: ``core.states``.
_LAZY = {
    "AdaptivePrefetcher": "repro.core.prefetch",
    "CacheController": "repro.core.cache_ctrl",
    "CacheState": "repro.core.states",
    "Directory": "repro.core.directory",
    "DirectoryEntry": "repro.core.directory",
    "ExtensionPipeline": "repro.core.extensions",
    "HomeController": "repro.core.home",
    "MemoryState": "repro.core.states",
    "Message": "repro.core.messages",
    "MsgType": "repro.core.messages",
    "ProtocolExtension": "repro.core.extensions",
    "Xact": "repro.core.transactions",
    "build_pipeline": "repro.core.extensions",
    "directory_bits_per_block": "repro.core.directory",
    "register_extension": "repro.core.extensions",
    "registered_extensions": "repro.core.extensions",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = sorted(_LAZY)
