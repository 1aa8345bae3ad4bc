"""Experiment drivers: one module per table/figure of the paper.

* :mod:`repro.experiments.table1` -- hardware-cost inventory
* :mod:`repro.experiments.figure2` -- RC execution times, all protocols
* :mod:`repro.experiments.table2` -- cold/coherence miss components
* :mod:`repro.experiments.figure3` -- SC execution times
* :mod:`repro.experiments.table3` -- mesh link-width sensitivity
* :mod:`repro.experiments.figure4` -- network traffic
* :mod:`repro.experiments.sensitivity` -- §5.4 buffer/SLC studies
* :mod:`repro.experiments.report` -- everything, into EXPERIMENTS.md

Each module offers ``run(scale=...)`` returning structured data,
``render(data)`` producing the paper-style text output, and a CLI
(``python -m repro.experiments.<name> --scale 0.5``).
"""

from repro.experiments.runner import (
    RunResult,
    RunSpec,
    SweepEngine,
    execute,
    limited_slc_cache,
    make_config,
    mesh_network,
    small_buffer_cache,
)

__all__ = [
    "RunResult",
    "RunSpec",
    "SweepEngine",
    "execute",
    "limited_slc_cache",
    "make_config",
    "mesh_network",
    "small_buffer_cache",
]
