"""Table 1: hardware needed by BASIC and by each extension.

Unlike the other experiments this is a static inventory, computed from
the same configuration objects the simulator runs with, so the claimed
hardware budget and the modelled mechanisms cannot drift apart.
"""

from __future__ import annotations

import argparse

from repro.core.hwcost import cost_table, directory_overhead_fraction
from repro.experiments.formats import render_table
from repro.experiments.runner import make_config


def run(n_procs: int = 16) -> list:
    """The Table 1 rows for an ``n_procs``-node machine."""
    return cost_table(n_procs=n_procs)


def render(rows: list) -> str:
    """Text rendering of the hardware-budget inventory."""
    table_rows = []
    for cost in rows:
        table_rows.append(
            (
                cost.protocol,
                f"{cost.slc_state_bits_per_line} bits",
                "; ".join(cost.extra_cache_mechanisms) or "none",
                f"{cost.slwb_entries} entries"
                + (" (block-sized)" if cost.slwb_entry_holds_block else ""),
                f"{cost.memory_state_bits_per_line} bits",
            )
        )
    text = render_table(
        (
            "Protocol",
            "SLC line state",
            "Additional mechanisms",
            "SLWB",
            "Memory line state",
        ),
        table_rows,
        title="Table 1: hardware support per protocol (16 nodes, RC)",
    )
    basic = make_config("BASIC")
    mig = make_config("M")
    text += (
        f"\n\ndirectory overhead: BASIC "
        f"{directory_overhead_fraction(basic) * 100:.1f}% of data bits, "
        f"M {directory_overhead_fraction(mig) * 100:.1f}%"
    )
    return text


def main(argv: list[str] | None = None, prog: str | None = None) -> None:
    """CLI entry: ``python -m repro.experiments.table1``."""
    parser = argparse.ArgumentParser(prog=prog, description=__doc__)
    parser.add_argument("--procs", type=int, default=16)
    args = parser.parse_args(argv)
    print(render(run(n_procs=args.procs)))


if __name__ == "__main__":
    main()
