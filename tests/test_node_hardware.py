"""Unit tests for the split-transaction bus and interleaved memory."""

import pytest

from repro.node.bus import SplitTransactionBus
from repro.node.memory import InterleavedMemory


class TestSplitTransactionBus:
    def test_control_message_is_one_cycle(self):
        bus = SplitTransactionBus("b")
        assert bus.cycles_for(8) == 1
        assert bus.access(0, 8) == 3

    def test_block_reply_is_two_cycles(self):
        bus = SplitTransactionBus("b")
        assert bus.cycles_for(40) == 2
        assert bus.access(0, 40) == 6

    def test_exact_width_is_one_cycle(self):
        bus = SplitTransactionBus("b")
        assert bus.cycles_for(32) == 1

    def test_zero_byte_message_still_arbitrates(self):
        bus = SplitTransactionBus("b")
        assert bus.cycles_for(0) == 1

    def test_transactions_serialize(self):
        bus = SplitTransactionBus("b")
        assert bus.access(0, 40) == 6
        assert bus.access(0, 8) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitTransactionBus("b", width_bytes=0)
        with pytest.raises(ValueError):
            SplitTransactionBus("b", cycle_pclocks=0)


class TestInterleavedMemory:
    def test_bank_selection_is_block_interleaved(self):
        mem = InterleavedMemory("m", n_banks=8)
        assert mem.bank_of(0) == 0
        assert mem.bank_of(7) == 7
        assert mem.bank_of(8) == 0

    def test_distinct_banks_serve_in_parallel(self):
        mem = InterleavedMemory("m", n_banks=8, access_pclocks=24)
        assert mem.access(0, block=0) == 24
        assert mem.access(0, block=1) == 24

    def test_same_bank_serializes(self):
        mem = InterleavedMemory("m", n_banks=8, access_pclocks=24)
        assert mem.access(0, block=0) == 24
        assert mem.access(0, block=8) == 48

    def test_validation(self):
        with pytest.raises(ValueError):
            InterleavedMemory("m", n_banks=0)
        with pytest.raises(ValueError):
            InterleavedMemory("m", access_pclocks=0)
