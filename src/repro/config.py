"""Configuration objects for the simulated machine.

All architectural parameters default to the values of paper §4:

* 16 processors at 100 MHz (1 pclock = 10 ns),
* 4-KB direct-mapped write-through FLC (1-pclock hit, 3-pclock fill),
* infinite direct-mapped write-back SLC, 32-byte blocks, 6-pclock access,
* 90-ns interleaved memory behind a 256-bit 33-MHz split-transaction bus
  (local memory access = 30 pclocks end to end),
* 54-pclock contention-free uniform network by default,
* 4-KB pages placed round-robin across nodes,
* release consistency with a 16-entry SLWB and an 8-entry FLWB.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache


#: version of the simulation model, bumped by hand in every change that
#: moves a simulated result.  Every result-cache key carries it, with
#: the defaults of the configs below that no spec names
#: (``repro.sweep.spec.MODEL_STAMP``), so a bump orphans every cached
#: result.  ``tests/golden/model_version.json`` pins it together with a
#: digest of the committed golden results, and a test fails when those
#: move while it does not.
MODEL_VERSION = 1


class Consistency(Enum):
    """Memory consistency model (paper §2, §5.2)."""

    SC = "SC"
    RC = "RC"


@dataclass(frozen=True)
class TimingConfig:
    """Latency parameters, in pclocks (10 ns)."""

    flc_hit: int = 1
    flc_fill: int = 3
    slc_access: int = 6
    #: end-to-end latency of one memory/directory access (90 ns = 9
    #: pclocks raw; 24 including DRAM/controller overhead so that a full
    #: local access -- bus + memory + bus -- totals the paper's 30 pclocks).
    memory_latency: int = 24
    #: the module "is fully interleaved" (§4): this many address-
    #: interleaved banks serve accesses in parallel; each access
    #: occupies its bank for the full ``memory_latency``.
    memory_banks: int = 8
    #: one bus cycle at 33 MHz = 3 pclocks (256-bit split-transaction
    #: bus: a transaction occupies ceil(bytes/width) cycles).
    bus_transaction: int = 3
    #: bus width in bytes (256 bits).
    bus_width_bytes: int = 32

    @property
    def local_memory_access(self) -> int:
        """End-to-end local memory access (paper: 30 pclocks)."""
        return self.memory_latency + 2 * self.bus_transaction


def require_ints(obj: object, *names: str) -> None:
    """Refuse a field of ``obj`` that is not a plain ``int``.

    ``True`` and ``16.0`` compare equal to ``1`` and ``16`` but
    serialize apart, so a config holding one would equal its int twin
    and still be keyed (and cached) under another spec key.
    """
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            raise ValueError(
                f"{type(obj).__name__}.{name} must be an int, got {value!r}"
            )


@dataclass(frozen=True)
class CacheConfig:
    """Cache-hierarchy geometry."""

    block_size: int = 32
    page_size: int = 4096
    flc_size: int = 4096
    #: None = infinite SLC (the paper's default); 16384 for §5.4.
    slc_size: int | None = None
    flwb_entries: int = 8
    slwb_entries: int = 16
    write_cache_blocks: int = 4

    def __post_init__(self) -> None:
        require_ints(self, "block_size", "page_size", "flc_size",
                     "flwb_entries", "slwb_entries", "write_cache_blocks")
        if self.slc_size is not None:
            require_ints(self, "slc_size")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if self.flc_size % self.block_size:
            raise ValueError("flc_size must be a multiple of block_size")
        if self.slc_size is not None and self.slc_size % self.block_size:
            raise ValueError("slc_size must be a multiple of block_size")


@dataclass(frozen=True)
class PrefetchConfig:
    """Adaptive sequential prefetching (paper §3.1, ref [3])."""

    initial_degree: int = 1
    max_degree: int = 8
    #: counters are modulo 16: every 16 issued prefetches the useful
    #: fraction is compared against the two thresholds below.
    window: int = 16
    high_mark: float = 0.55
    low_mark: float = 0.20


@dataclass(frozen=True)
class CompetitiveConfig:
    """Competitive update + write cache (paper §3.3, refs [4, 10])."""

    #: updates tolerated with no intervening local access before the
    #: local copy self-invalidates (1: the paper's recommendation with
    #: write caches).
    threshold: int = 1


@dataclass(frozen=True)
class ProtocolConfig:
    """Which extensions are stacked onto the BASIC protocol.

    Each of the paper's three extensions has a boolean flag.  The
    extension registry (:mod:`repro.core.extensions.registry`) is the
    source of truth for name parsing, canonical ordering and capability
    traits.
    """

    prefetch: bool = False
    migratory: bool = False
    competitive_update: bool = False
    prefetch_params: PrefetchConfig = field(default_factory=PrefetchConfig)
    competitive_params: CompetitiveConfig = field(default_factory=CompetitiveConfig)

    @cached_property
    def name(self) -> str:
        """Paper-style protocol name: BASIC, P, M, CW, P+CW, ...

        Built from the extension registry, so the parts follow its
        canonical order.  Computed once per instance (the dataclass is
        frozen).
        """
        from repro.core.extensions import registered_extensions

        parts = [
            info.name for info in registered_extensions() if info.enabled(self)
        ]
        return "+".join(parts) if parts else "BASIC"

    @staticmethod
    @lru_cache(maxsize=256)
    def from_name(name: str) -> "ProtocolConfig":
        """Parse a protocol-combination name ('BASIC', 'P+CW', 'p,cw').

        Memoized per spelling: every caller of one name shares one
        frozen instance.  Only successful parses are kept, so a bad
        name raises on every call.  Extensions register at import
        time; a registration made later does not change an earlier
        name's parse, because :class:`ProtocolConfig` has no flag for
        it.
        """
        from repro.core.extensions import resolve_names

        if name.upper() in {"BASIC", "B-SC", ""}:
            return ProtocolConfig()
        raw = name.replace("-SC", "").replace(",", "+").split("+")
        names = resolve_names(part for part in raw if part)
        return ProtocolConfig(
            prefetch="P" in names,
            migratory="M" in names,
            competitive_update="CW" in names,
        )

    @cached_property
    def _traits(self) -> frozenset[str]:
        """The traits the enabled extensions declare, built from the
        registry once per instance, as :attr:`name` is."""
        from repro.core.extensions import registered_extensions

        return frozenset(
            trait
            for info in registered_extensions()
            if info.enabled(self)
            for trait in info.traits
        )

    def has_trait(self, trait: str) -> bool:
        """True when any enabled extension declares ``trait``."""
        return trait in self._traits


class NetworkKind(Enum):
    """Interconnect models of §4 and §5.3."""

    UNIFORM = "uniform"
    MESH = "mesh"


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect parameters."""

    kind: NetworkKind = NetworkKind.UNIFORM
    #: contention-free node-to-node latency (uniform network).
    uniform_latency: int = 54
    #: wormhole mesh: link width in bits (64 / 32 / 16 in §5.3).
    link_width_bits: int = 64
    #: per-hop header latency: two phases, routing + transfer.
    hop_cycles: int = 2
    #: message header size in bytes (address + type + routing info).
    header_bytes: int = 8

    def __post_init__(self) -> None:
        require_ints(self, "uniform_latency", "link_width_bits", "hop_cycles",
                     "header_bytes")


def check_machine(n_procs: int, consistency: Consistency,
                  protocol: ProtocolConfig) -> None:
    """Refuse a machine that cannot be built: no processors, or an
    extension that needs release consistency under SC.

    :class:`SystemConfig` and :class:`~repro.sweep.RunSpec` both apply
    it when built, so a spec that names such a machine is refused
    before it is keyed, not inside a worker.
    """
    if n_procs < 1:
        raise ValueError("need at least one processor")
    if consistency is Consistency.SC and protocol.has_trait("requires_rc"):
        raise ValueError(
            "the competitive-update mechanism requires release consistency "
            "(paper §5.2: 'We omit CW because it is not feasible under "
            "sequential consistency')"
        )


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated machine."""

    n_procs: int = 16
    consistency: Consistency = Consistency.RC
    timing: TimingConfig = field(default_factory=TimingConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self) -> None:
        check_machine(self.n_procs, self.consistency, self.protocol)

    def with_protocol(self, name: str) -> "SystemConfig":
        """A copy of this config running the named protocol."""
        return replace(self, protocol=ProtocolConfig.from_name(name))

    @property
    def effective_slwb_entries(self) -> int:
        """SLWB depth (paper §5.2: single entry under SC, except for P)."""
        if self.consistency is Consistency.SC and not self.protocol.has_trait(
            "prefetch"
        ):
            return 1
        return self.cache.slwb_entries

    @property
    def effective_flwb_entries(self) -> int:
        """FLWB depth (single entry under SC)."""
        if self.consistency is Consistency.SC:
            return 1
        return self.cache.flwb_entries


#: the eight protocols evaluated in the paper, in Figure 2 order.
ALL_PROTOCOLS = ("BASIC", "P", "CW", "M", "P+CW", "P+M", "CW+M", "P+CW+M")

#: protocols feasible under sequential consistency (§5.2).
SC_PROTOCOLS = ("BASIC", "P", "M", "P+M")
