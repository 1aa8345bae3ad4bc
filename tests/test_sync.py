"""Unit tests for the queue-based lock table and barrier table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sync.barriers import BarrierTable
from repro.sync.locks import LockTable


class TestLockTable:
    def test_free_lock_granted_immediately(self):
        locks = LockTable()
        assert locks.request(0x100, 3) is True
        assert locks.holder_of(0x100) == 3

    def test_held_lock_queues(self):
        locks = LockTable()
        locks.request(1, 0)
        assert locks.request(1, 1) is False
        assert locks.request(1, 2) is False
        assert locks.holder_of(1) == 0     # queued requests take nothing

    def test_release_grants_in_fifo_order(self):
        locks = LockTable()
        locks.request(1, 0)
        locks.request(1, 1)
        locks.request(1, 2)
        assert locks.release(1, 0) == 1
        assert locks.holder_of(1) == 1
        assert locks.release(1, 1) == 2
        assert locks.release(1, 2) is None
        assert locks.holder_of(1) is None

    def test_release_by_non_holder_rejected(self):
        locks = LockTable()
        locks.request(1, 0)
        with pytest.raises(ValueError):
            locks.release(1, 5)

    def test_release_free_lock_rejected(self):
        locks = LockTable()
        with pytest.raises(ValueError):
            locks.release(1, 0)

    def test_independent_locks(self):
        locks = LockTable()
        assert locks.request(1, 0)
        assert locks.request(2, 1)
        assert locks.holder_of(1) == 0
        assert locks.holder_of(2) == 1

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=50, unique=True))
    def test_property_every_requester_eventually_holds(self, nodes):
        locks = LockTable()
        holders = []
        for node in nodes:
            if locks.request(9, node):
                holders.append(node)
        current = holders[0]
        while True:
            nxt = locks.release(9, current)
            if nxt is None:
                break
            holders.append(nxt)
            current = nxt
        assert holders == list(nodes)  # FIFO fairness


class TestBarrierTable:
    def test_incomplete_barrier_returns_none(self):
        bars = BarrierTable()
        assert bars.arrive(0, 0, expected=3) is None
        assert bars.arrive(0, 1, expected=3) is None
        assert bars.waiting(0) == 2

    def test_complete_barrier_wakes_everyone(self):
        bars = BarrierTable()
        bars.arrive(0, 0, expected=3)
        bars.arrive(0, 1, expected=3)
        wake = bars.arrive(0, 2, expected=3)
        assert sorted(wake) == [0, 1, 2]
        assert bars.waiting(0) == 0
        # the next arrival starts a new episode instead of waking anyone
        assert bars.arrive(0, 1, expected=3) is None
        assert bars.waiting(0) == 1

    def test_barrier_reusable(self):
        bars = BarrierTable()
        for _episode in range(3):
            assert bars.arrive(7, 0, expected=2) is None
            assert bars.arrive(7, 1, expected=2) == [0, 1]
            assert bars.waiting(7) == 0

    def test_mismatched_expected_count_rejected(self):
        bars = BarrierTable()
        bars.arrive(0, 0, expected=2)
        with pytest.raises(ValueError):
            bars.arrive(0, 1, expected=3)

    def test_independent_barriers(self):
        bars = BarrierTable()
        bars.arrive(0, 0, expected=2)
        bars.arrive(1, 1, expected=2)
        assert bars.waiting(0) == 1
        assert bars.waiting(1) == 1
