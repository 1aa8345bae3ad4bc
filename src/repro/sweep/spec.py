"""Canonical description of one simulation cell: :class:`RunSpec`.

Every table/figure in the paper is a cross-product sweep over
(application, protocol, consistency, network, cache, scale, seed).  A
``RunSpec`` freezes one cell of such a sweep into a hashable value
object that

* builds its own :class:`~repro.config.SystemConfig` (``to_config``),
* serializes to/from a plain JSON-able dict (``to_dict``/``from_dict``),
* derives a *stable* content hash (``key``) that is identical across
  processes and covers the simulation model as well (:data:`MODEL_STAMP`)
  -- the result cache and the process-pool executor both address cells
  by it.

A spec names the machine and nothing else: its eight fields are the
whole canonical dict, and every entry point refuses anything more.

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
import functools
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any

from repro.config import (
    MODEL_VERSION,
    CacheConfig,
    CompetitiveConfig,
    Consistency,
    NetworkConfig,
    NetworkKind,
    PrefetchConfig,
    ProtocolConfig,
    SystemConfig,
    TimingConfig,
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
#: v5: the canonical dict holds the eight spec fields and nothing else
#: (no ``directory``, ``page_placement``, ``network.mesh_dims`` or
#: ``workload_kw``), and the key carries :data:`MODEL_STAMP`.
SPEC_SCHEMA_VERSION = 5

#: the paper's seed; kept in one place so the API, the CLI and every
#: experiment driver agree.
DEFAULT_SEED = 1994


#: the canonical JSON form keys and wire strings are hashed and sent in;
#: ``json.dumps`` with these options would build a new encoder per call.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: the simulation model a key covers beyond its spec: the hand-bumped
#: :data:`~repro.config.MODEL_VERSION` and the defaults of the configs
#: no spec carries, read from fresh instances once, at import.  No
#: source file is hashed, so a refactor that keeps every counter keeps
#: every key, while a changed default or a version bump moves them all.
MODEL_STAMP = {
    "version": MODEL_VERSION,
    "timing": dataclasses.asdict(TimingConfig()),
    "prefetch": dataclasses.asdict(PrefetchConfig()),
    "competitive": dataclasses.asdict(CompetitiveConfig()),
}


class SpecSchemaError(ValueError):
    """A serialized RunSpec payload cannot be deserialized safely.

    Raised for malformed JSON, a missing/unknown ``"v"`` stamp or a
    payload whose fields are not the spec's own or do not reassemble
    into a valid spec.
    """


#: field names of the config dataclasses a spec nests, in declaration
#: order.  Every field holds a scalar or an enum, so a shallow field
#: dict serializes exactly like ``dataclasses.asdict`` without its
#: recursive deep copy.
_NETWORK_FIELDS = tuple(f.name for f in dataclasses.fields(NetworkConfig))
_CACHE_FIELDS = tuple(f.name for f in dataclasses.fields(CacheConfig))


def _network_to_dict(net: NetworkConfig) -> dict:
    d = {name: getattr(net, name) for name in _NETWORK_FIELDS}
    d["kind"] = net.kind.value
    return d


def _cache_to_dict(cache: CacheConfig) -> dict:
    return {name: getattr(cache, name) for name in _CACHE_FIELDS}


#: the sub-configs a spec gets when it leaves them unset, one frozen
#: instance each, shared by every such spec.
_DEFAULT_NETWORK = NetworkConfig()
_DEFAULT_CACHE = CacheConfig()


# -- the key's canonical fragments ------------------------------------
#
# ``RunSpec.key()`` hashes the canonical JSON of ``{"model":
# MODEL_STAMP, "schema": SPEC_SCHEMA_VERSION, "spec": to_dict()}``
# without running the encoder: it joins, in sorted-key order, fragments
# that are each the canonical JSON of one value.  The model stamp, the
# schema and the default sub-configs are encoded once here; any other
# sub-config once per distinct value (they are frozen, and
# ``require_ints`` makes equal values serialize alike); strings go
# through the encoder's own string escaper, and the plain ints and the
# float scale through ``repr``, which is what the encoder writes for
# them.  The tests hold the result to the encoder's, byte for byte.

_DEFAULT_NETWORK_JSON = _canonical_json(_network_to_dict(_DEFAULT_NETWORK))
_DEFAULT_CACHE_JSON = _canonical_json(_cache_to_dict(_DEFAULT_CACHE))
_KEY_HEAD = ('{"model":%s,"schema":%d,"spec":{"app":'
             % (_canonical_json(MODEL_STAMP), SPEC_SCHEMA_VERSION))


@functools.lru_cache(maxsize=256)
def _network_json(net: NetworkConfig) -> str:
    return _canonical_json(_network_to_dict(net))


@functools.lru_cache(maxsize=256)
def _cache_json(cache: CacheConfig) -> str:
    return _canonical_json(_cache_to_dict(cache))


def _network_from_dict(d: Mapping[str, Any]) -> NetworkConfig:
    d = dict(d)
    d["kind"] = NetworkKind(d["kind"])
    return NetworkConfig(**d)


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

    def __post_init__(self) -> None:
        app = self.app
        if not isinstance(app, str) or app.lower() not in ALL_APP_NAMES:
            raise ValueError(
                f"unknown workload {app!r}; choose from {sorted(ALL_APP_NAMES)}"
            )
        # one spelling per workload: "MP3D" and "mp3d" build the same
        # run, so they must be one spec with one key
        object.__setattr__(self, "app", app.lower())
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
    ) -> "RunSpec":
        """A spec whose unset sub-configs (``None``) are the defaults."""
        return cls(
            app=app,
            protocol=protocol,
            consistency=consistency,
            n_procs=n_procs,
            scale=scale,
            seed=seed,
            network=network or _DEFAULT_NETWORK,
            cache=cache or _DEFAULT_CACHE,
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
        """Plain JSON-able dict of the eight spec fields; inverse of
        :meth:`from_dict`."""
        return {
            "app": self.app,
            "protocol": self.protocol,
            "consistency": self.consistency,
            "n_procs": self.n_procs,
            "scale": self.scale,
            "seed": self.seed,
            "network": _network_to_dict(self.network),
            "cache": _cache_to_dict(self.cache),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Refuses (:class:`ValueError`) a dict whose keys are not exactly
        the spec's fields; the sub-configs refuse unknown fields too.
        """
        if d.keys() != _FIELD_NAMES:
            raise ValueError(
                f"spec fields must be {sorted(_FIELD_NAMES)}; unknown: "
                f"{sorted(d.keys() - _FIELD_NAMES)}, missing: "
                f"{sorted(_FIELD_NAMES - d.keys())}"
            )
        return cls(
            app=d["app"],
            protocol=d["protocol"],
            consistency=d["consistency"],
            n_procs=d["n_procs"],
            scale=d["scale"],
            seed=d["seed"],
            network=_network_from_dict(d["network"]),
            cache=CacheConfig(**d["cache"]),
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

        The sha256 of the canonical JSON of ``{"model": MODEL_STAMP,
        "schema": SPEC_SCHEMA_VERSION, "spec": self.to_dict()}``,
        assembled from its fragments (see ``_KEY_HEAD``); unlike
        :func:`hash`, identical in every process and for every dict
        key order.  Memoized on the instance (safe: the dataclass is
        frozen), since the engine and the cache address every cell by
        key several times per run.
        """
        memo = self.__dict__.get("_key")
        if memo is not None:
            return memo
        net, cache = self.network, self.cache
        net_json = (_DEFAULT_NETWORK_JSON if net is _DEFAULT_NETWORK
                    else _network_json(net))
        cache_json = (_DEFAULT_CACHE_JSON if cache is _DEFAULT_CACHE
                      else _cache_json(cache))
        payload = (
            f'{_KEY_HEAD}{_json_str(self.app)},"cache":{cache_json}'
            f',"consistency":{_json_str(self.consistency)}'
            f',"n_procs":{self.n_procs!r},"network":{net_json}'
            f',"protocol":{_json_str(self.protocol)}'
            f',"scale":{self.scale!r},"seed":{self.seed!r}}}}}'
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


#: the keys of every canonical dict: the spec's fields.
_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(RunSpec))


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
