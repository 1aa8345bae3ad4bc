"""Unit tests for the FLWB, SLWB and write cache."""

import pytest

from conftest import tiny_config
from repro.mem.write_buffers import Flwb, FlwbEntry, Slwb
from repro.mem.write_cache import WriteCache
from repro.system import System


class TestFlwb:
    def test_fifo_order(self):
        flwb = Flwb(4)
        for a in (1, 2, 3):
            flwb.push(FlwbEntry(addr=a))
        assert [flwb.pop().addr for _ in range(3)] == [1, 2, 3]

    def test_capacity_and_overflow(self):
        flwb = Flwb(2)
        flwb.push(FlwbEntry(addr=1))
        flwb.push(FlwbEntry(addr=2))
        assert flwb.full
        with pytest.raises(OverflowError):
            flwb.push(FlwbEntry(addr=3))

    def test_markers_do_not_consume_capacity(self):
        flwb = Flwb(1)
        flwb.push(FlwbEntry(addr=1))
        assert flwb.full
        flwb.push(FlwbEntry(addr=-1, marker=object()))
        assert len(flwb) == 1  # still one *write*
        assert not flwb.empty

    def test_markers_keep_fifo_position(self):
        flwb = Flwb(4)
        marker = object()
        flwb.push(FlwbEntry(addr=1))
        flwb.push(FlwbEntry(addr=-1, marker=marker))
        flwb.push(FlwbEntry(addr=2))
        assert flwb.pop().addr == 1
        assert flwb.pop().marker is marker
        assert flwb.pop().addr == 2
        assert flwb.empty

    def test_peek(self):
        flwb = Flwb(2)
        flwb.push(FlwbEntry(addr=9))
        assert flwb.peek().addr == 9
        assert len(flwb) == 1

    def test_needs_capacity(self):
        with pytest.raises(ValueError):
            Flwb(0)


class TestSlwb:
    def test_alloc_release(self):
        ctrl = System(tiny_config(slwb_entries=2)).nodes[0].cache
        slwb = ctrl.slwb
        a = slwb.alloc()
        b = slwb.alloc()
        assert a != b
        assert slwb.full
        ctrl.release_slwb(a)
        assert not slwb.full
        ctrl.release_slwb(b)
        assert len(slwb) == 0

    def test_out_of_order_release(self):
        ctrl = System(tiny_config(slwb_entries=3)).nodes[0].cache
        ids = [ctrl.slwb.alloc() for _ in range(3)]
        ctrl.release_slwb(ids[1])
        assert len(ctrl.slwb) == 2
        # a retired id is gone: retiring it again is a protocol error
        with pytest.raises(KeyError):
            ctrl.release_slwb(ids[1])
        # a freed entry takes a fresh id
        assert ctrl.slwb.alloc() not in ids

    def test_overflow(self):
        slwb = Slwb(1)
        slwb.alloc()
        with pytest.raises(OverflowError):
            slwb.alloc()

    def test_has_room(self):
        slwb = Slwb(2)
        assert slwb.has_room(2)
        slwb.alloc()
        assert slwb.has_room(1)
        assert not slwb.has_room(2)


class TestWriteCache:
    def test_allocate_on_write(self):
        wc = WriteCache(4)
        assert wc.lookup(8) is None
        wc.write(8, 2, had_copy=True)
        entry = wc.lookup(8)
        assert entry is not None
        assert entry.dirty_words == {2}
        assert entry.had_copy

    def test_combining(self):
        wc = WriteCache(4)
        wc.write(8, 0, had_copy=False)
        wc.write(8, 1, had_copy=False)
        wc.write(8, 1, had_copy=False)
        assert wc.lookup(8).dirty_words == {0, 1}
        assert len(wc) == 1

    def test_direct_mapped_victimization(self):
        wc = WriteCache(4)
        wc.write(1, 0, had_copy=False)
        victim = wc.write(5, 3, had_copy=True)  # 5 % 4 == 1 % 4
        assert victim is not None
        assert victim.block == 1
        assert wc.lookup(1) is None
        assert wc.lookup(5).dirty_words == {3}

    def test_no_victim_on_distinct_sets(self):
        wc = WriteCache(4)
        assert wc.write(0, 0, had_copy=False) is None
        assert wc.write(1, 0, had_copy=False) is None
        assert len(wc) == 2

    def test_remove(self):
        wc = WriteCache(4)
        wc.write(2, 5, had_copy=False)
        entry = wc.remove(2)
        assert entry.dirty_words == {5}
        assert wc.remove(2) is None

    def test_drain(self):
        wc = WriteCache(4)
        wc.write(0, 0, had_copy=False)
        wc.write(1, 1, had_copy=False)
        entries = wc.drain()
        assert {e.block for e in entries} == {0, 1}
        assert len(wc) == 0

    def test_needs_capacity(self):
        with pytest.raises(ValueError):
            WriteCache(0)
