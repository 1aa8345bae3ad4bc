"""Integration tests for the BASIC write-invalidate protocol."""

from conftest import BLOCK, pad_streams, run_streams, tiny_config

from repro.config import Consistency
from repro.core.states import CacheState, MemoryState


def addr_homed_at(node: int) -> int:
    """An address whose home is ``node`` (4-node round-robin pages)."""
    return node * 4096


class TestReadPath:
    def test_flc_hit_costs_one_pclock(self):
        cfg = tiny_config()
        a = addr_homed_at(0)
        system = run_streams(cfg, pad_streams([[("read", a), ("read", a)]], 4))
        stats = system.stats.procs[0]
        # first read: miss; second read: FLC hit (1 busy pclock, no stall)
        assert stats.shared_reads == 2
        assert system.stats.caches[0].demand_read_misses == 1

    def test_local_clean_miss_is_faster_than_remote(self):
        local = run_streams(
            tiny_config(), pad_streams([[("read", addr_homed_at(0))]], 4)
        )
        remote = run_streams(
            tiny_config(), pad_streams([[("read", addr_homed_at(2))]], 4)
        )
        assert (
            local.stats.procs[0].read_stall < remote.stats.procs[0].read_stall
        )

    def test_remote_dirty_miss_is_slowest(self):
        a = addr_homed_at(2)
        # node 1 dirties the block, then node 0 reads it (4 transfers)
        dirty = run_streams(
            tiny_config(),
            pad_streams(
                [
                    [("think", 2000), ("read", a)],
                    [("read", a), ("write", a)],
                ],
                4,
            ),
        )
        clean = run_streams(
            tiny_config(),
            pad_streams([[("think", 2000), ("read", a)], [("read", a)]], 4),
        )
        assert dirty.stats.procs[0].read_stall > clean.stats.procs[0].read_stall

    def test_read_sharing_populates_directory(self):
        a = addr_homed_at(1)
        streams = pad_streams([[("read", a)], [("read", a)], [("read", a)]], 4)
        system = run_streams(tiny_config(), streams)
        entry = system.nodes[1].home.directory.entry(a // BLOCK)
        assert entry.state is MemoryState.CLEAN
        assert entry.sharers == {0, 1, 2}


class TestWritePath:
    def test_write_invalidates_other_sharers(self):
        a = addr_homed_at(1)
        streams = pad_streams(
            [
                [("read", a), ("think", 3000), ("read", a)],
                [("think", 1000), ("read", a), ("write", a)],
            ],
            4,
        )
        system = run_streams(tiny_config(), streams)
        assert system.stats.caches[0].invalidations_received >= 1
        # node 0's second read is a coherence miss
        assert system.stats.caches[0].coherence_misses == 1

    def test_upgrade_leaves_block_modified_at_writer(self):
        a = addr_homed_at(1)
        streams = pad_streams([[("read", a), ("write", a)]], 4)
        system = run_streams(tiny_config(), streams)
        entry = system.nodes[1].home.directory.entry(a // BLOCK)
        assert entry.state is MemoryState.MODIFIED
        assert entry.owner == 0
        line = system.nodes[0].cache.slc.lookup(a // BLOCK)
        assert line is not None and line.state is CacheState.DIRTY

    def test_write_miss_fetches_block_exclusively(self):
        a = addr_homed_at(2)
        system = run_streams(tiny_config(), pad_streams([[("write", a)]], 4))
        entry = system.nodes[2].home.directory.entry(a // BLOCK)
        assert entry.state is MemoryState.MODIFIED
        assert entry.owner == 0

    def test_rc_hides_write_latency(self):
        a = addr_homed_at(2)
        ops = [("write", a + i * BLOCK) for i in range(4)]
        system = run_streams(tiny_config(), pad_streams([ops], 4))
        assert system.stats.procs[0].write_stall == 0

    def test_sc_exposes_write_latency(self):
        a = addr_homed_at(2)
        ops = [("write", a + i * BLOCK) for i in range(4)]
        cfg = tiny_config(consistency=Consistency.SC)
        system = run_streams(cfg, pad_streams([ops], 4))
        assert system.stats.procs[0].write_stall > 0


class TestEvictionsAndWritebacks:
    def test_dirty_eviction_writes_back(self):
        # 1-KB SLC = 32 sets; blocks 0 and 32 conflict
        cfg = tiny_config(slc_size=1024)
        a = addr_homed_at(0)
        conflict = a + 32 * BLOCK
        system = run_streams(
            cfg, pad_streams([[("write", a), ("read", conflict)]], 4)
        )
        assert system.stats.caches[0].writebacks == 1
        entry = system.nodes[0].home.directory.entry(a // BLOCK)
        assert entry.state is MemoryState.CLEAN
        assert entry.owner is None

    def test_shared_eviction_sends_replacement_hint(self):
        cfg = tiny_config(slc_size=1024)
        a = addr_homed_at(0)
        conflict = a + 32 * BLOCK
        system = run_streams(
            cfg, pad_streams([[("read", a), ("read", conflict)]], 4)
        )
        entry = system.nodes[0].home.directory.entry(a // BLOCK)
        assert 0 not in entry.sharers

    def test_upgrade_in_flight_leaves_no_stale_replacement_hint(self):
        """Node 0 evicts its shared copy of ``a`` while its ownership
        upgrade waits on node 1's invalidation.  A hint sent then would
        queue at the home behind node 2's read, whose fetch leaves node
        0 a shared copy, and drop node 0 from the sharers."""
        cfg = tiny_config(slc_size=1024)
        a = addr_homed_at(3)            # SLC set 0, remote home
        conflict = addr_homed_at(0)     # SLC set 0, local home: fills first
        streams = pad_streams([
            [("read", a), ("write", a), ("read", conflict), ("think", 3000)],
            [("read", a), ("think", 3000)],
            [("think", 185), ("read", a), ("think", 3000)],
        ], 4)
        system = run_streams(cfg, streams)  # checks every invariant
        assert system.nodes[0].cache.slc.lookup(a // BLOCK) is not None
        entry = system.nodes[3].home.directory.entry(a // BLOCK)
        assert entry.sharers == {0, 2}

    def test_replacement_miss_classified(self):
        cfg = tiny_config(slc_size=1024)
        a = addr_homed_at(0)
        conflict = a + 32 * BLOCK
        system = run_streams(
            cfg,
            pad_streams([[("read", a), ("read", conflict), ("read", a)]], 4),
        )
        assert system.stats.caches[0].replacement_misses == 1
        assert system.stats.caches[0].cold_misses == 2


class TestMissClassification:
    def test_first_touch_is_cold(self):
        a = addr_homed_at(3)
        system = run_streams(tiny_config(), pad_streams([[("read", a)]], 4))
        assert system.stats.caches[0].cold_misses == 1
        assert system.stats.caches[0].coherence_misses == 0

    def test_invalidated_retouch_is_coherence(self):
        a = addr_homed_at(1)
        streams = pad_streams(
            [
                [("read", a), ("think", 5000), ("read", a)],
                [("think", 1500), ("write", a)],
            ],
            4,
        )
        system = run_streams(tiny_config(), streams)
        c = system.stats.caches[0]
        assert c.cold_misses == 1
        assert c.coherence_misses == 1

    def test_miss_rates_sum(self):
        a = addr_homed_at(1)
        streams = pad_streams([[("read", a)], [("read", a)]], 4)
        system = run_streams(tiny_config(), streams)
        total = sum(c.demand_read_misses for c in system.stats.caches)
        parts = sum(
            c.cold_misses + c.replacement_misses + c.coherence_misses
            for c in system.stats.caches
        )
        assert total == parts == 2
