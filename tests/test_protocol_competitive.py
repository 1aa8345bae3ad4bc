"""Integration tests for the competitive-update mechanism (CW)."""

import pytest
from conftest import BLOCK, pad_streams, run_streams, tiny_config

from repro.core.states import CacheState, MemoryState
from repro.system import System
from repro.core.invariants import check_all


def cs(lock, body):
    """A critical section around ``body``."""
    return [("acquire", lock)] + body + [("release", lock)]


LOCK = 8 * 4096  # lock variable on its own page


class TestWriteCache:
    def test_writes_combine_until_release(self):
        cfg = tiny_config("CW")
        ops = cs(LOCK, [("write", 0), ("write", 4), ("write", 8)])
        system = run_streams(cfg, pad_streams([ops], 4))
        cache = system.stats.caches[0]
        # three writes to the same block -> a single flush
        assert cache.write_cache_flushes == 1
        wc = system.nodes[0].cache.wcache
        assert wc is not None and len(wc) == 0  # drained at release

    def test_flush_carries_only_dirty_words(self):
        cfg = tiny_config("CW")
        remote = 4096  # homed at node 1: the flush crosses the network
        ops = cs(LOCK, [("write", remote), ("write", remote + 4)])
        system = run_streams(cfg, pad_streams([ops], 4))
        assert system.stats.network.by_type.get("WC_FLUSH", 0) == 1
        # header (8) + two dirty words (8) going out, WC_ACK (8) back,
        # LOCK_REQ/GRANT/REL/REL_ACK (32): far less than a 40-byte block
        flush_bytes = 8 + 2 * 4
        assert system.stats.network.bytes >= flush_bytes

    def test_victimization_flushes_conflicting_entry(self):
        cfg = tiny_config("CW")
        # blocks 0 and 4 conflict in the 4-entry write cache
        ops = [("read", 0), ("write", 0), ("write", 4 * BLOCK),
               ("think", 2000)]
        system = run_streams(cfg, pad_streams([ops], 4))
        assert system.stats.caches[0].write_cache_flushes >= 1

    def test_read_hits_in_write_cache(self):
        cfg = tiny_config("CW")
        # write allocates in the write cache only; the read that
        # follows must not count as a demand miss
        ops = [("write", 0), ("read", 0), ("think", 2000)]
        system = run_streams(cfg, pad_streams([ops], 4))
        assert system.stats.caches[0].demand_read_misses == 0


class TestUpdatePropagation:
    def test_sharers_receive_updates(self):
        cfg = tiny_config("CW")
        streams = pad_streams(
            [
                cs(LOCK, [("read", 0), ("write", 0)]) + [("think", 4000)],
                [("read", 0), ("think", 8000)],
            ],
            4,
        )
        system = run_streams(cfg, streams)
        assert system.stats.caches[1].updates_received >= 1

    def test_active_reader_copy_survives_updates(self):
        cfg = tiny_config("CW")
        streams = pad_streams(
            [
                # writer: repeated flushes via critical sections
                cs(LOCK, [("read", 0), ("write", 0)])
                + [("think", 3000)]
                + cs(LOCK, [("write", 0)])
                + [("think", 3000)]
                + cs(LOCK, [("write", 0)]),
                # reader: touches the block between every update
                [("read", 0)] + [
                    op
                    for _ in range(40)
                    for op in (("think", 300), ("read", 0))
                ],
            ],
            4,
        )
        system = run_streams(cfg, streams)
        # the reader re-accessed between updates: no coherence miss
        assert system.stats.caches[1].coherence_misses == 0
        line = system.nodes[1].cache.slc.lookup(0)
        assert line is not None

    def test_idle_copy_drops_after_tolerance(self):
        cfg = tiny_config("CW")
        streams = pad_streams(
            [
                cs(LOCK, [("read", 0), ("write", 0)])
                + [("think", 2000)]
                + cs(LOCK, [("write", 0)])
                + [("think", 2000)]
                + cs(LOCK, [("write", 0)]),
                [("read", 0), ("think", 30000)],  # reads once, then idle
            ],
            4,
        )
        system = run_streams(cfg, streams)
        assert system.stats.caches[1].updates_dropped >= 1
        assert system.nodes[1].cache.slc.lookup(0) is None

    def test_memory_stays_clean_so_misses_are_two_hop(self):
        # §3.3: "the likelihood of finding a clean copy at memory is
        # higher", shortening the remaining coherence misses
        def ping_pong(proto):
            streams = pad_streams(
                [
                    cs(LOCK, [("read", 0), ("write", 0)]) + [("think", 6000)],
                    [("think", 3000)] + cs(LOCK, [("read", 0), ("write", 0)])
                    + [("think", 3000)],
                    [("think", 9000), ("read", 0)],
                ],
                4,
            )
            return run_streams(tiny_config(proto), streams)

        cw = ping_pong("CW")
        basic = ping_pong("BASIC")
        cw_lat = cw.stats.caches[2].read_miss_latency_total
        basic_lat = basic.stats.caches[2].read_miss_latency_total
        assert cw_lat < basic_lat


class TestExclusivityKnob:
    """A sole sharer's flush leaves a plain block shared: only a
    migratory block (CW+M) migrates to the flusher."""

    def test_no_exclusivity_by_default(self):
        cfg = tiny_config("CW")
        ops = cs(LOCK, [("read", 0), ("write", 0)]) + [("think", 2000)]
        system = System(cfg)
        system.run(pad_streams([ops], 4))
        check_all(system)
        line = system.nodes[0].cache.slc.lookup(0)
        assert line is not None and line.state is CacheState.SHARED
        entry = system.nodes[0].home.directory.entry(0)
        assert entry.state is MemoryState.CLEAN


class TestCwPlusM:
    def test_migratory_detected_from_update_sequences(self):
        # §3.4: alternating updaters + interrogation of copy holders
        cfg = tiny_config("CW+M")
        streams = pad_streams(
            [
                cs(LOCK, [("read", 0), ("write", 0)]) + [("think", 6000)]
                + cs(LOCK, [("read", 0), ("write", 0)]),
                [("think", 3000)] + cs(LOCK, [("read", 0), ("write", 0)])
                + [("think", 6000)] + cs(LOCK, [("read", 0), ("write", 0)]),
            ],
            4,
        )
        system = run_streams(cfg, streams)
        assert system.nodes[0].home.migratory_detections >= 1

    def test_cw_plus_m_stops_update_propagation(self):
        def updates(proto):
            streams = pad_streams(
                [
                    cs(LOCK, [("read", 0), ("write", 0)]) + [("think", 8000)]
                    + cs(LOCK, [("read", 0), ("write", 0)]) + [("think", 2000)]
                    + cs(LOCK, [("read", 0), ("write", 0)]),
                    [("think", 4000)] + cs(LOCK, [("read", 0), ("write", 0)])
                    + [("think", 8000)]
                    + cs(LOCK, [("read", 0), ("write", 0)]),
                ],
                4,
            )
            system = run_streams(tiny_config(proto), streams)
            return sum(c.updates_received for c in system.stats.caches)

        assert updates("CW+M") < updates("CW")


class TestCwRestrictions:
    def test_cw_requires_rc(self):
        from repro.config import Consistency

        with pytest.raises(ValueError):
            tiny_config("CW", consistency=Consistency.SC)


class TestReleaseMarkers:
    def test_field_equal_markers_are_both_held_by_a_queued_flush(self):
        """Two releases whose markers compare equal field by field are
        still two sync points: each must wait for the queued flush."""
        from repro.core.cache_ctrl import SyncMarker
        from repro.mem.write_cache import WriteCacheEntry

        system = System(tiny_config("CW"))
        ctrl = system.nodes[0].cache
        ext = ctrl.extensions.get("CW")
        # a full SLWB makes every flush wait in the flush queue
        held = [ctrl.slwb.alloc() for _ in range(ctrl.slwb.capacity)]
        ext._queue_flush(WriteCacheEntry(block=3, dirty_words={0}), markers=[])

        def on_done():
            pass

        first = SyncMarker(kind="release", target=LOCK, on_done=on_done)
        second = SyncMarker(kind="release", target=LOCK, on_done=on_done)
        ctrl._arm_marker(first)
        assert first.outstanding == 1
        # a write between the two releases: arming the second marker
        # queues its flush first (outstanding 1), so when it reaches
        # the older queued flush every field equals those of the
        # marker already there
        ext.wcache.write(5, 0, had_copy=False)
        ctrl._arm_marker(second)
        # neither fired; the second waits for both queued flushes
        assert second.outstanding == 2
        assert not ctrl._release_acks
        older, newer = (markers for _entry, markers in ext._flush_queue)
        assert len(older) == 2
        assert older[0] is first and older[1] is second
        assert len(newer) == 1 and newer[0] is second
        # each flush holds its markers once it issues
        for eid in held[:2]:
            ctrl.release_slwb(eid)
        assert not ext._flush_queue
        ((older_eid,), (newer_eid,)) = (
            tuple(ext._pending_flushes[b]) for b in (3, 5)
        )
        waiting = ctrl._eid_markers[older_eid]
        assert len(waiting) == 2
        assert waiting[0] is first and waiting[1] is second
        assert ctrl._eid_markers[newer_eid] == [second]
