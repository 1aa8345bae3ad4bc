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
    #: ref [3] compares *fixed* sequential prefetching (constant K)
    #: against the adaptive scheme; False freezes the degree.
    adaptive: bool = True
    #: counters are modulo 16: every 16 issued prefetches the useful
    #: fraction is compared against the two thresholds below.
    window: int = 16
    high_mark: float = 0.55
    low_mark: float = 0.20


@dataclass(frozen=True)
class CompetitiveConfig:
    """Competitive update + write cache (paper §3.3, refs [4, 10])."""

    #: updates tolerated with no intervening local access before the
    #: local copy self-invalidates.  1 with write caches (the paper's
    #: recommendation); 4 without.
    threshold: int = 1
    use_write_cache: bool = True
    #: let the home grant exclusive ownership to a flusher that is the
    #: sole remaining sharer.  Saves single-user update traffic but
    #: re-creates dirty-at-cache blocks, lengthening other processors'
    #: coherence misses -- off by default, kept for the ablation bench.
    exclusive_grant: bool = False

    @staticmethod
    def classic() -> "CompetitiveConfig":
        """Ref [10]'s protocol: per-write updates, threshold 4, no
        write cache -- the baseline §3.3 improves on."""
        return CompetitiveConfig(threshold=4, use_write_cache=False)


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

    def has_trait(self, trait: str) -> bool:
        """True when any enabled extension declares ``trait``."""
        from repro.core.extensions import registered_extensions

        return any(
            trait in info.traits
            for info in registered_extensions()
            if info.enabled(self)
        )


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
    #: explicit mesh ``(width, height)``; None factors the node count
    #: into the squarest W x H rectangle (16 -> 4x4, 12 -> 4x3).
    mesh_dims: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.mesh_dims is not None:
            dims = tuple(int(d) for d in self.mesh_dims)
            if len(dims) != 2:
                raise ValueError(
                    f"mesh_dims must be a (width, height) pair, "
                    f"got {self.mesh_dims!r}"
                )
            object.__setattr__(self, "mesh_dims", dims)


#: the supported directory organizations (paper §2 + the scalability
#: extension): exact full-map presence bits, limited pointers with
#: broadcast fallback (Dir_i-B), and coarse presence bits of K nodes.
DIRECTORY_ORGS = ("full_map", "limited", "coarse")


@dataclass(frozen=True)
class DirectoryConfig:
    """Directory organization (storage/precision trade-off).

    The paper's machine keeps a full-map presence vector, whose
    per-block cost grows linearly with the node count.  The two
    scalable organizations trade precision for storage: a
    limited-pointer directory (Dir_i-B) keeps ``pointers`` exact node
    pointers and falls back to broadcast invalidation once they
    overflow; a coarse-vector directory keeps one presence bit per
    ``region_size`` consecutive nodes, so every bit over-approximates
    its region.  Both may therefore send protocol traffic to nodes
    without a copy -- which is exactly the cost the scalability study
    measures.
    """

    org: str = "full_map"
    #: Dir_i-B: exact pointers kept before the broadcast fallback.
    pointers: int = 4
    #: coarse vector: nodes covered by one presence bit.
    region_size: int = 4

    def __post_init__(self) -> None:
        if self.org not in DIRECTORY_ORGS:
            raise ValueError(
                f"unknown directory organization {self.org!r}; "
                f"choose from {DIRECTORY_ORGS}"
            )
        if self.pointers < 1:
            raise ValueError("limited-pointer directory needs >= 1 pointer")
        if self.region_size < 1:
            raise ValueError("coarse-vector region_size must be >= 1")

    @staticmethod
    def from_name(name: str) -> "DirectoryConfig":
        """Parse ``full_map`` / ``limited[:i]`` / ``coarse[:k]``."""
        base, _, param = name.partition(":")
        base = base.strip().lower().replace("-", "_")
        if base in ("full_map", "fullmap", "full"):
            return DirectoryConfig()
        if base in ("limited", "dir_i_b", "dirib"):
            return DirectoryConfig(
                org="limited", pointers=int(param) if param else 4
            )
        if base == "coarse":
            return DirectoryConfig(
                org="coarse", region_size=int(param) if param else 4
            )
        raise ValueError(
            f"unknown directory organization {name!r}; use 'full_map', "
            "'limited[:pointers]' or 'coarse[:region_size]'"
        )

    @property
    def name(self) -> str:
        """Canonical short name ('full_map', 'limited:4', 'coarse:4')."""
        if self.org == "limited":
            return f"limited:{self.pointers}"
        if self.org == "coarse":
            return f"coarse:{self.region_size}"
        return "full_map"


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated machine."""

    n_procs: int = 16
    consistency: Consistency = Consistency.RC
    timing: TimingConfig = field(default_factory=TimingConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    #: page->home policy: "round_robin" (§4's choice) or "first_touch"
    page_placement: str = "round_robin"

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("need at least one processor")
        if self.page_placement not in ("round_robin", "first_touch"):
            raise ValueError(
                f"unknown page placement {self.page_placement!r}"
            )
        if self.consistency is Consistency.SC and self.protocol.has_trait(
            "requires_rc"
        ):
            raise ValueError(
                "the competitive-update mechanism requires release consistency "
                "(paper §5.2: 'We omit CW because it is not feasible under "
                "sequential consistency')"
            )

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
