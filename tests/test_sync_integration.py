"""Integration tests for locks, barriers and consistency semantics."""

from conftest import BLOCK, pad_streams, run_streams, tiny_config

from repro.config import Consistency

LOCK = 4096  # lock variable homed at node 1


class TestLocks:
    def test_mutual_exclusion_serializes_holders(self):
        # all four processors increment a counter under the same lock;
        # at the end the home must have seen a consistent lock history
        streams = [
            [("acquire", LOCK), ("read", 0), ("write", 0), ("release", LOCK)]
            for _ in range(4)
        ]
        system = run_streams(tiny_config(), streams)
        table = system.nodes[1].home.locks
        assert table.holder_of(LOCK // BLOCK) is None  # all released
        assert [p.acquires for p in system.stats.procs] == [1, 1, 1, 1]
        # node 1 is the lock's home and takes it without a message; each
        # of the other three is granted it by exactly one LOCK_GRANT
        by_type = system.stats.network.by_type
        assert by_type["LOCK_REQ"] == by_type["LOCK_GRANT"] == 3
        assert by_type["LOCK_REL"] == by_type["LOCK_REL_ACK"] == 3

    def test_contended_acquire_stalls(self):
        streams = pad_streams(
            [
                [("acquire", LOCK), ("think", 2000), ("release", LOCK)],
                [("think", 100), ("acquire", LOCK), ("release", LOCK)],
            ],
            4,
        )
        system = run_streams(tiny_config(), streams)
        assert system.stats.procs[1].acquire_stall > 1500

    def test_uncontended_acquire_is_cheap(self):
        system = run_streams(
            tiny_config(),
            pad_streams([[("acquire", LOCK), ("release", LOCK)]], 4),
        )
        # one remote round trip, no queueing
        assert system.stats.procs[0].acquire_stall < 400


class TestReleaseSemantics:
    def test_rc_release_waits_for_prior_writes(self):
        # the lock handoff to proc 1 cannot happen until proc 0's
        # buffered writes have obtained ownership: compare the waiter's
        # acquire stall with and without writes before the release
        a = 2 * 4096
        lock = 3 * 4096  # remote to both contenders

        def contend(n_writes):
            streams = pad_streams(
                [
                    [("acquire", lock)]
                    + [("write", a + i * BLOCK) for i in range(n_writes)]
                    + [("release", lock)],
                    [("think", 120), ("acquire", lock), ("release", lock)],
                ],
                4,
            )
            system = run_streams(tiny_config(), streams)
            return system.stats.procs[1].acquire_stall

        assert contend(12) > contend(0) + 100

    def test_rc_processor_does_not_stall_on_release(self):
        a = 2 * 4096
        streams = pad_streams(
            [
                [("acquire", LOCK)]
                + [("write", a + i * BLOCK) for i in range(6)]
                + [("release", LOCK), ("think", 1)],
            ],
            4,
        )
        system = run_streams(tiny_config(), streams)
        assert system.stats.procs[0].release_stall == 0

    def test_sc_release_stalls_until_performed(self):
        cfg = tiny_config(consistency=Consistency.SC)
        streams = pad_streams(
            [[("acquire", LOCK), ("release", LOCK)]], 4
        )
        system = run_streams(cfg, streams)
        assert system.stats.procs[0].release_stall > 0

    def test_cw_release_flushes_write_cache(self):
        cfg = tiny_config("CW")
        a = 2 * 4096
        streams = pad_streams(
            [
                [("acquire", LOCK), ("read", a), ("write", a),
                 ("release", LOCK), ("think", 100)],
            ],
            4,
        )
        system = run_streams(cfg, streams)
        assert system.stats.caches[0].write_cache_flushes == 1
        wc = system.nodes[0].cache.wcache
        assert len(wc) == 0


class TestBarriers:
    def test_barrier_waits_for_all(self):
        streams = [
            [("think", 100 * (p + 1)), ("barrier", 0), ("think", 1)]
            for p in range(4)
        ]
        system = run_streams(tiny_config(), streams)
        # the earliest arriver waited for the latest
        assert system.stats.procs[0].acquire_stall > 250

    def test_barrier_reuse_across_phases(self):
        streams = [
            [("barrier", 0), ("think", 5), ("barrier", 1), ("barrier", 0)]
            for _ in range(4)
        ]
        system = run_streams(tiny_config(), streams)
        for p in system.stats.procs:
            assert p.barriers == 3

    def test_barrier_orders_prior_writes(self):
        # a value written before the barrier must be globally visible
        # after it: proc 1's read after the barrier misses to proc 0's
        # dirty block (4-hop), proving the write performed
        a = 2 * 4096
        streams = [
            [("write", a), ("barrier", 0)],
            [("barrier", 0), ("read", a)],
            [("barrier", 0)],
            [("barrier", 0)],
        ]
        system = run_streams(tiny_config(), streams)
        assert system.stats.caches[1].demand_read_misses == 1
        # the read was served from proc 0's dirty copy: the directory
        # shows both as sharers afterwards
        entry = system.nodes[2].home.directory.entry(a // BLOCK)
        assert entry.sharers >= {0, 1}


class TestWriteBufferBackpressure:
    def test_tiny_flwb_stalls_the_processor(self):
        cfg = tiny_config(flwb_entries=1, slwb_entries=1)
        a = 2 * 4096
        ops = [("write", a + i * BLOCK) for i in range(10)]
        system = run_streams(cfg, pad_streams([ops], 4))
        assert system.stats.procs[0].write_stall > 0

    def test_deep_buffers_hide_the_same_writes(self):
        cfg = tiny_config(flwb_entries=8, slwb_entries=16)
        a = 2 * 4096
        # a few think cycles between writes, as real code has: the
        # drain keeps up and the write latency is fully hidden
        ops = []
        for i in range(10):
            ops.append(("write", a + i * BLOCK))
            ops.append(("think", 8))
        system = run_streams(cfg, pad_streams([ops], 4))
        assert system.stats.procs[0].write_stall == 0
