"""Tests for FLWB store-to-load forwarding."""

from conftest import pad_streams, run_streams, tiny_config

from repro.config import Consistency
from repro.mem.write_buffers import Flwb, FlwbEntry


class TestFlwbLookup:
    def test_contains_write_to(self):
        flwb = Flwb(4)
        flwb.push(FlwbEntry(addr=0x100))
        assert flwb.contains_write_to(0x100)
        assert not flwb.contains_write_to(0x104)

    def test_markers_do_not_forward(self):
        flwb = Flwb(4)
        flwb.push(FlwbEntry(addr=0x100, marker=object()))
        assert not flwb.contains_write_to(0x100)

    def test_popped_writes_no_longer_forward(self):
        flwb = Flwb(4)
        flwb.push(FlwbEntry(addr=0x100))
        flwb.pop()
        assert not flwb.contains_write_to(0x100)


class TestForwardingBehaviour:
    def test_read_after_buffered_write_is_immediate(self):
        a = 2 * 4096  # remote home: a real miss would be expensive
        streams = pad_streams([[("write", a), ("read", a), ("think", 3000)]], 4)
        system = run_streams(tiny_config(), streams)
        p = system.stats.procs[0]
        assert system.stats.caches[0].flwb_forwards == 1
        # the read never became a demand miss
        assert system.stats.caches[0].demand_read_misses == 0
        assert p.read_stall == 0

    def test_different_word_in_same_block_does_not_forward(self):
        a = 2 * 4096
        streams = pad_streams(
            [[("write", a), ("read", a + 4), ("think", 3000)]], 4
        )
        system = run_streams(tiny_config(), streams)
        assert system.stats.caches[0].flwb_forwards == 0

    def test_no_forwarding_once_drained(self):
        a = 2 * 4096
        # plenty of think time: the write drains and completes before
        # the read, which then hits the (now dirty) SLC line instead
        streams = pad_streams(
            [[("write", a), ("think", 3000), ("read", a)]], 4
        )
        system = run_streams(tiny_config(), streams)
        assert system.stats.caches[0].flwb_forwards == 0
        assert system.stats.caches[0].demand_read_misses == 0  # SLC hit

    def test_sc_writes_never_linger_in_the_buffer(self):
        a = 2 * 4096
        cfg = tiny_config(consistency=Consistency.SC)
        streams = pad_streams([[("write", a), ("read", a)]], 4)
        system = run_streams(cfg, streams)
        # blocking writes complete before the read issues
        assert system.stats.caches[0].flwb_forwards == 0
