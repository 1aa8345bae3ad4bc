"""Unit tests for FCFS resources."""

import pytest

from repro.sim.resource import FcfsResource


def test_idle_resource_starts_immediately():
    res = FcfsResource(name="bus")
    assert res.reserve(ready=10, occupancy=5) == 10
    assert res.free_at == 15


def test_back_to_back_reservations_queue():
    res = FcfsResource(name="bus")
    assert res.reserve(0, 10) == 0
    assert res.reserve(0, 10) == 10
    assert res.reserve(5, 10) == 20


def test_gap_leaves_idle_time():
    res = FcfsResource(name="bus")
    res.reserve(0, 5)
    assert res.reserve(100, 5) == 100


def test_finish_time():
    res = FcfsResource(name="mem")
    assert res.finish_time(7, 3) == 10
    assert res.finish_time(0, 3) == 13  # queued behind the first


def test_zero_occupancy_allowed():
    res = FcfsResource(name="x")
    assert res.reserve(5, 0) == 5
    assert res.free_at == 5


def test_negative_occupancy_rejected():
    res = FcfsResource(name="x")
    with pytest.raises(ValueError):
        res.reserve(0, -1)
