"""The node memory module (paper §4).

"The memory in each processor node is fully interleaved with an access
time of 90 ns": the module is organized as address-interleaved banks
selected by low-order block bits.  Each access occupies its *bank* for
the full access latency, but accesses to distinct banks proceed in
parallel, so the module as a whole pipelines back-to-back traffic --
without interleaving, the home node of any hot page would serialize
the entire machine.
"""

from __future__ import annotations

from repro.sim.resource import FcfsResource


class InterleavedMemory:
    """Bank-interleaved memory with per-bank FCFS service."""

    def __init__(
        self,
        name: str,
        n_banks: int = 8,
        access_pclocks: int = 24,
    ) -> None:
        if n_banks <= 0 or access_pclocks <= 0:
            raise ValueError("bank count and access time must be positive")
        self.name = name
        self.n_banks = n_banks
        self.access_pclocks = access_pclocks
        self._banks = [
            FcfsResource(name=f"{name}.bank{i}") for i in range(n_banks)
        ]

    def bank_of(self, block: int) -> int:
        """The bank serving ``block`` (low-order interleaving)."""
        return block % self.n_banks

    def access(self, ready: int, block: int) -> int:
        """Serve one access to ``block``; returns completion time.

        The reference rule: ``HomeController.mem_access`` inlines it
        for every directory/memory operation.
        """
        bank = self._banks[self.bank_of(block)]
        return bank.finish_time(ready, self.access_pclocks)
