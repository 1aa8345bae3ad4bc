"""Canonical description of one simulation cell: :class:`RunSpec`.

Every table/figure in the paper is a cross-product sweep over
(application, protocol, consistency, network, cache, scale, seed).  A
``RunSpec`` freezes one cell of such a sweep into a hashable value
object that

* builds its own :class:`~repro.config.SystemConfig` (``to_config``),
* serializes to/from a plain JSON-able dict (``to_dict``/``from_dict``),
* derives a *stable* content hash (``key``) that is identical across
  processes and insensitive to keyword-argument order -- the result
  cache and the process-pool executor both address cells by it.

``RunResult`` is the matching value object on the way out: the spec
that produced it, the collected :class:`~repro.stats.counters.MachineStats`
and bookkeeping (wall time, cache provenance).  Unlike the historical
``experiments.runner.RunResult`` it does **not** hold the simulated
:class:`~repro.system.System`, so it pickles cheaply and fits in the
on-disk cache.

Specs that leave the process -- cache files, the golden spec-key
file -- travel as the *wire form*: the plain dict plus an explicit
``"v"`` schema stamp (``to_wire``/``from_wire``, or ``to_json``/
``from_json`` for the serialized string).  Deserialization rejects
unknown versions with :class:`SpecSchemaError` instead of guessing at
field meanings, so a stale payload fails loudly rather than
mis-deserializing into a subtly different machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.config import (
    CacheConfig,
    Consistency,
    NetworkConfig,
    NetworkKind,
    ProtocolConfig,
    SystemConfig,
    check_machine,
    require_ints,
)
# The extension registry, which ProtocolConfig.from_name parses names
# with: every spec canonicalizes its protocol through it, so it loads
# with this module rather than inside the first spec built.  It holds
# metadata only; no extension implementation loads with it.
import repro.core.extensions  # noqa: F401
from repro.stats.counters import MachineStats
from repro.workloads import ALL_APP_NAMES

#: bump whenever the meaning of a spec field (or a simulator default it
#: relies on) changes; every cached result keyed under an older version
#: becomes unreachable, which is exactly the invalidation we want.
#: v2: ``directory`` organization field and ``network.mesh_dims``.
#: v3: ``backend`` execution-tier field.
#: v4: the ``backend`` field is gone again (one execution tier).
#: The directory, page-placement and mesh-shape options are gone too,
#: but every canonical dict still carries their one surviving value
#: (below), so the keys of v4 specs did not change with them.
SPEC_SCHEMA_VERSION = 4

#: the paper's seed; kept in one place so the API, the CLI and every
#: experiment driver agree.
DEFAULT_SEED = 1994


#: the canonical JSON form keys and wire strings are hashed and sent in;
#: ``json.dumps`` with these options would build a new encoder per call.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class SpecSchemaError(ValueError):
    """A serialized RunSpec payload cannot be deserialized safely.

    Raised for malformed JSON, a missing/unknown ``"v"`` stamp or a
    payload whose fields do not reassemble into a valid spec.
    """


#: field names of the config dataclasses a spec nests, in declaration
#: order.  Every field holds a scalar or an enum, so a shallow field
#: dict serializes exactly like ``dataclasses.asdict`` without its
#: recursive deep copy.
_NETWORK_FIELDS = tuple(f.name for f in dataclasses.fields(NetworkConfig))
_CACHE_FIELDS = tuple(f.name for f in dataclasses.fields(CacheConfig))

#: the values the canonical dict keeps for the machine options that
#: have one setting only: the full-map directory, round-robin page
#: placement and the squarest mesh (``network.mesh_dims``).
_DIRECTORY_DICT = {"org": "full_map", "pointers": 4, "region_size": 4}
_PAGE_PLACEMENT = "round_robin"


def _network_to_dict(net: NetworkConfig) -> dict:
    d = {name: getattr(net, name) for name in _NETWORK_FIELDS}
    d["kind"] = net.kind.value
    d["mesh_dims"] = None
    return d


def _cache_to_dict(cache: CacheConfig) -> dict:
    return {name: getattr(cache, name) for name in _CACHE_FIELDS}


#: the sub-configs a spec gets when it leaves them unset, one frozen
#: instance each, shared by every such spec; their field dicts are
#: built once here, so keying a default cell rebuilds none of them.
_DEFAULT_NETWORK = NetworkConfig()
_DEFAULT_CACHE = CacheConfig()
_DEFAULT_NETWORK_DICT = _network_to_dict(_DEFAULT_NETWORK)
_DEFAULT_CACHE_DICT = _cache_to_dict(_DEFAULT_CACHE)


def _network_from_dict(d: Mapping[str, Any]) -> NetworkConfig:
    d = dict(d)
    dims = d.pop("mesh_dims", None)
    if dims is not None:
        raise ValueError(
            f"unsupported mesh_dims {dims!r}: the mesh is always the "
            "squarest factoring of n_procs"
        )
    d["kind"] = NetworkKind(d["kind"])
    return NetworkConfig(**d)


def _check_fixed(d: Mapping[str, Any]) -> None:
    """Refuse a dict that sets a single-setting option to another value."""
    directory = d.get("directory", _DIRECTORY_DICT)
    if directory != _DIRECTORY_DICT:
        raise ValueError(
            f"unsupported directory {directory!r}: the machine has a "
            "full-map directory only"
        )
    placement = d.get("page_placement", _PAGE_PLACEMENT)
    if placement != _PAGE_PLACEMENT:
        raise ValueError(
            f"unsupported page placement {placement!r}: pages are "
            "always placed round-robin"
        )


@dataclass(frozen=True)
class RunSpec:
    """Frozen, hashable description of one simulation."""

    app: str
    protocol: str = "BASIC"
    consistency: str = "RC"
    n_procs: int = 16
    scale: float = 1.0
    seed: int = DEFAULT_SEED
    network: NetworkConfig = _DEFAULT_NETWORK
    cache: CacheConfig = _DEFAULT_CACHE
    #: extra workload keyword arguments, stored as a sorted tuple of
    #: (name, value) pairs.  Equality and hashing go by their canonical
    #: JSON (``_kw_json``) instead, as the key does: ``True``, ``1`` and
    #: ``1.0`` compare equal in Python but serialize apart.
    workload_kw: tuple[tuple[str, Any], ...] = field(default=(), compare=False)
    _kw_json: str = field(default="{}", init=False, repr=False)

    def __post_init__(self) -> None:
        app = self.app
        if not isinstance(app, str) or app.lower() not in ALL_APP_NAMES:
            raise ValueError(
                f"unknown workload {app!r}; choose from {sorted(ALL_APP_NAMES)}"
            )
        if isinstance(self.consistency, Consistency):
            object.__setattr__(self, "consistency", self.consistency.value)
        consistency = Consistency(self.consistency)  # validate early
        # the sub-configs check their own fields when built, so the
        # shared defaults are not checked again here
        require_ints(self, "n_procs", "seed")
        # 1 and 1.0 compare and hash equal, so they must share one key
        # (and one cache entry) too
        scale = float(self.scale)
        # a workload's size floor runs every scale <= 0 as the same
        # machine under different keys, and nan or inf fail only when
        # the workload is built -- in a pool worker for a batch
        if not 0.0 < scale < math.inf:
            raise ValueError(
                f"RunSpec.scale must be finite and > 0, got {self.scale!r}"
            )
        object.__setattr__(self, "scale", scale)
        # canonicalize the protocol name ("CW+P" -> "P+CW")
        protocol = ProtocolConfig.from_name(self.protocol)
        object.__setattr__(self, "protocol", protocol.name)
        # refuse what to_config() would, before the spec is keyed
        check_machine(self.n_procs, consistency, protocol)
        kw = self.workload_kw
        if isinstance(kw, Mapping):
            kw = kw.items()
        kw = tuple(sorted((str(k), v) for k, v in kw))
        object.__setattr__(self, "workload_kw", kw)
        if kw:
            object.__setattr__(self, "_kw_json", _canonical_json(dict(kw)))

    # -- construction ---------------------------------------------------

    @classmethod
    def for_run(
        cls,
        app: str,
        protocol: str = "BASIC",
        consistency: Consistency | str = Consistency.RC,
        network: NetworkConfig | None = None,
        cache: CacheConfig | None = None,
        n_procs: int = 16,
        scale: float = 1.0,
        seed: int = DEFAULT_SEED,
        **workload_kw: Any,
    ) -> "RunSpec":
        """Mirror of the historical ``run_once`` signature."""
        if "backend" in workload_kw:
            # the removed execution-tier field must not slip into the
            # workload keywords (and from there into the cache key)
            raise TypeError(
                "for_run() got an unexpected keyword argument 'backend' "
                "(there is one execution tier)"
            )
        for name in ("directory", "page_placement"):
            if name in workload_kw:
                raise ValueError(
                    f"for_run() no longer takes {name!r}: the machine has "
                    "a full-map directory and round-robin page placement"
                )
        return cls(
            app=app,
            protocol=protocol,
            consistency=consistency,
            n_procs=n_procs,
            scale=scale,
            seed=seed,
            network=network or _DEFAULT_NETWORK,
            cache=cache or _DEFAULT_CACHE,
            workload_kw=workload_kw,
        )

    # -- conversion -----------------------------------------------------

    def to_config(self) -> SystemConfig:
        """The machine configuration this spec describes."""
        return SystemConfig(
            n_procs=self.n_procs,
            consistency=Consistency(self.consistency),
            network=self.network,
            cache=self.cache,
        ).with_protocol(self.protocol)

    def to_dict(self) -> dict:
        """Plain JSON-able dict; inverse of :meth:`from_dict`."""
        d = self._shared_dict()
        # the caller may mutate what it gets; the defaults' dicts are shared
        for name in ("network", "cache", "directory"):
            d[name] = dict(d[name])
        return d

    def _shared_dict(self) -> dict:
        """:meth:`to_dict` whose sub-config dicts may be the shared
        defaults' dicts: read it, never mutate it."""
        net, cache = self.network, self.cache
        return {
            "app": self.app,
            "protocol": self.protocol,
            "consistency": self.consistency,
            "n_procs": self.n_procs,
            "scale": self.scale,
            "seed": self.seed,
            "network": (_DEFAULT_NETWORK_DICT if net is _DEFAULT_NETWORK
                        else _network_to_dict(net)),
            "cache": (_DEFAULT_CACHE_DICT if cache is _DEFAULT_CACHE
                      else _cache_to_dict(cache)),
            "directory": _DIRECTORY_DICT,
            "page_placement": _PAGE_PLACEMENT,
            "workload_kw": {k: v for k, v in self.workload_kw},
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        _check_fixed(d)
        return cls(
            app=d["app"],
            protocol=d["protocol"],
            consistency=d["consistency"],
            n_procs=d["n_procs"],
            scale=d["scale"],
            seed=d["seed"],
            network=_network_from_dict(d["network"]),
            cache=CacheConfig(**d["cache"]),
            workload_kw=d.get("workload_kw", {}),
        )

    # -- wire form (versioned) ------------------------------------------

    def to_wire(self) -> dict:
        """The dict that a spec is stored in outside the process.

        :meth:`to_dict` plus an explicit ``"v"`` schema stamp; the only
        spec shape the cache files hold.
        """
        return {"v": SPEC_SCHEMA_VERSION, **self.to_dict()}

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_wire` output.

        Raises :class:`SpecSchemaError` when the payload is not a dict,
        carries no/an unknown ``"v"`` stamp, or its fields do not
        reassemble into a valid spec.
        """
        if not isinstance(payload, Mapping):
            raise SpecSchemaError(
                f"spec payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("v")
        if version != SPEC_SCHEMA_VERSION:
            raise SpecSchemaError(
                f"unknown spec schema version {version!r} "
                f"(this build speaks v{SPEC_SCHEMA_VERSION}); "
                "refusing to mis-deserialize a stale payload"
            )
        fields = {k: v for k, v in payload.items() if k != "v"}
        try:
            return cls.from_dict(fields)
        except SpecSchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecSchemaError(f"invalid spec payload: {exc}") from exc

    def to_json(self) -> str:
        """Canonical JSON string of :meth:`to_wire`."""
        return _canonical_json(self.to_wire())

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunSpec":
        """Inverse of :meth:`to_json`; same errors as :meth:`from_wire`."""
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise SpecSchemaError(f"spec payload is not valid JSON: {exc}") \
                from exc
        return cls.from_wire(payload)

    def key(self) -> str:
        """Stable content hash of this spec (cache address).

        Computed over the canonical JSON of :meth:`to_dict` plus
        :data:`SPEC_SCHEMA_VERSION`; unlike :func:`hash`, identical in
        every process and for every dict key order.  Memoized on the
        instance (safe: the dataclass is frozen), since the engine and
        the cache address every cell by key several times per run.
        """
        memo = self.__dict__.get("_key")
        if memo is not None:
            return memo
        payload = _canonical_json(
            {"schema": SPEC_SCHEMA_VERSION, "spec": self._shared_dict()}
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()
        object.__setattr__(self, "_key", digest)
        return digest

    def label(self) -> str:
        """Short human-readable cell name for progress reporting."""
        extras = []
        if self.network.kind is not NetworkKind.UNIFORM:
            extras.append(f"mesh{self.network.link_width_bits}")
        if self.n_procs != 16:
            extras.append(f"{self.n_procs}p")
        tail = f" [{','.join(extras)}]" if extras else ""
        return f"{self.app}/{self.protocol}/{self.consistency}{tail}"


@dataclass(frozen=True)
class RunResult:
    """Statistics of one simulation plus the spec that produced them."""

    spec: RunSpec
    stats: MachineStats
    #: seconds spent simulating this cell (0.0 when unknown).
    wall_time: float = 0.0
    #: True when served from the result cache instead of simulated.
    from_cache: bool = False

    @property
    def app(self) -> str:
        """Application name (from the spec)."""
        return self.spec.app

    @property
    def protocol(self) -> str:
        """Canonical protocol name (from the spec)."""
        return self.spec.protocol

    @property
    def consistency(self) -> str:
        """Consistency model value, 'RC' or 'SC' (from the spec)."""
        return self.spec.consistency

    @property
    def execution_time(self) -> int:
        """Parallel-section execution time in pclocks."""
        return self.stats.execution_time
