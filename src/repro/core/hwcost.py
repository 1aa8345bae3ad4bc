"""Hardware-cost model (paper Table 1).

Computes the storage and mechanism inventory of BASIC and of each
extension: state bits per SLC line, extra per-cache mechanisms, SLWB
requirements, and directory bits per memory line.  The numbers are
derived from the same configuration objects that drive the simulator,
so the cost table stays consistent with what is actually modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import Consistency, ProtocolConfig, SystemConfig
from repro.core.directory import directory_bits_per_block


@dataclass(frozen=True)
class HardwareCost:
    """Per-protocol hardware budget, mirroring Table 1's rows."""

    protocol: str
    slc_state_bits_per_line: int
    extra_cache_mechanisms: tuple[str, ...]
    slwb_entries: int
    slwb_entry_holds_block: bool
    memory_state_bits_per_line: int


def _cache_line_bits(proto: ProtocolConfig) -> int:
    bits = 2  # BASIC: 3 stable states -> 2 bits
    if proto.prefetch:
        bits += 2  # prefetched + counted-useful (Table 1: "2 bits")
    if proto.migratory:
        bits += 1  # the extra MIG_CLEAN state
    if proto.competitive_update:
        bits += max(1, math.ceil(math.log2(proto.competitive_params.threshold + 1)))
        bits += 1  # accessed-since-update
        if proto.migratory:
            bits += 1  # modified-since-update (§3.4)
    return bits


def _mechanisms(proto: ProtocolConfig) -> tuple[str, ...]:
    out: list[str] = []
    if proto.prefetch:
        out.append("3 modulo-16 prefetch counters per cache")
    if proto.competitive_update:
        out.append("write cache with four blocks (per-word dirty bits)")
    return tuple(out)


def hardware_cost(cfg: SystemConfig) -> HardwareCost:
    """The hardware budget of ``cfg``'s protocol on ``cfg``'s machine."""
    proto = cfg.protocol
    return HardwareCost(
        protocol=proto.name,
        slc_state_bits_per_line=_cache_line_bits(proto),
        extra_cache_mechanisms=_mechanisms(proto),
        slwb_entries=cfg.effective_slwb_entries,
        slwb_entry_holds_block=proto.competitive_update,
        memory_state_bits_per_line=directory_bits_per_block(
            cfg.n_procs, proto.migratory
        ),
    )


def directory_overhead_fraction(cfg: SystemConfig) -> float:
    """Directory bits as a fraction of a memory block's data bits."""
    bits = directory_bits_per_block(cfg.n_procs, cfg.protocol.migratory)
    return bits / (cfg.cache.block_size * 8)


def cost_table(n_procs: int = 16, consistency: Consistency = Consistency.RC) -> list[HardwareCost]:
    """Table 1: the cost of BASIC, P, M and CW side by side."""
    rows = []
    for name in ("BASIC", "P", "M", "CW"):
        if consistency is Consistency.SC and name == "CW":
            continue
        cfg = SystemConfig(n_procs=n_procs, consistency=consistency).with_protocol(name)
        rows.append(hardware_cost(cfg))
    return rows
