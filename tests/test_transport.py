"""Tests for the system-level message transport (bus + network path)."""

from conftest import pad_streams, run_streams, tiny_config

from repro.config import NetworkConfig, NetworkKind


class TestTrafficAccounting:
    def test_local_transactions_generate_no_network_traffic(self):
        # proc 0 reads a block homed at node 0: no network bytes
        system = run_streams(tiny_config(), pad_streams([[("read", 0)]], 4))
        assert system.stats.network.bytes == 0
        assert system.stats.network.messages == 0

    def test_remote_read_is_request_plus_reply(self):
        system = run_streams(
            tiny_config(), pad_streams([[("read", 4096)]], 4)
        )
        by_type = system.stats.network.by_type
        assert by_type == {"RD_REQ": 1, "RD_RPL": 1}
        assert system.stats.network.bytes == 8 + 40
        assert system.stats.network.data_messages == 1

    def test_four_hop_miss_message_mix(self):
        a = 2 * 4096  # homed at node 2
        streams = pad_streams(
            [
                [("think", 3000), ("read", a)],
                [("write", a)],
            ],
            4,
        )
        system = run_streams(tiny_config(), streams)
        by_type = system.stats.network.by_type
        # node 1's write: RDX_REQ + RDX_RPL; node 0's read: RD_REQ,
        # FETCH forward, RD_RPL from owner, XFER_ACK writeback
        assert by_type["FETCH"] == 1
        assert by_type["XFER_ACK"] == 1
        assert by_type["RD_RPL"] == 1

    def test_invalidation_message_mix(self):
        a = 2 * 4096  # home = node 2, not one of the sharers
        streams = pad_streams(
            [
                [("read", a), ("think", 5000)],
                [("read", a), ("think", 5000)],
                [],
                [("think", 2000), ("read", a), ("write", a)],
            ],
            4,
        )
        system = run_streams(tiny_config(), streams)
        by_type = system.stats.network.by_type
        assert by_type["INV"] == 2
        assert by_type["INV_ACK"] == 2
        assert by_type.get("OWN_ACK", 0) == 1


class TestBusContention:
    def test_node_bus_serializes_traffic(self):
        # three remote processors read distinct blocks (so distinct
        # memory banks) of home node 1 at once: only that node's bus is
        # shared, so each data reply (40 bytes, two bus cycles) queues
        # behind the one before it
        a = 4096
        streams = [[("read", a + p * 32)] if p != 1 else [] for p in range(4)]
        system = run_streams(tiny_config(), streams)
        together = sorted(
            p.read_stall for p in system.stats.procs if p.read_stall
        )
        alone = run_streams(
            tiny_config(), pad_streams([[("read", a)]], 4)
        ).stats.procs[0].read_stall
        reply = 2 * tiny_config().timing.bus_transaction
        assert together == [alone, alone + reply, alone + 2 * reply]

    def test_hot_home_is_slower_than_spread_homes(self):
        hot = [[("read", 4096 + p * 32), ("read", 4096 + (p + 8) * 32)]
               for p in range(4)]
        spread = [[("read", (p + 1) * 4096), ("read", (p + 1) * 4096 + 32)]
                  for p in range(4)]
        t_hot = run_streams(tiny_config(), hot).stats.execution_time
        t_spread = run_streams(tiny_config(), spread).stats.execution_time
        assert t_hot >= t_spread

    def test_memory_interleaving_pipelines_accesses(self):
        # the memory bank accepts a new access every occupancy cycles
        # even though each takes the full latency: 4 concurrent reads
        # to one home finish far sooner than 4 serial latencies
        a = 4096
        streams = [[("read", a + p * 32)] for p in range(4)]
        system = run_streams(tiny_config(), streams)
        worst = max(p.read_stall for p in system.stats.procs)
        single = run_streams(
            tiny_config(), pad_streams([[("read", a)]], 4)
        ).stats.procs[0].read_stall
        assert worst < single + 3 * 24  # not 4 serialized accesses


class TestMeshTransport:
    def test_mesh_system_end_to_end(self):
        cfg = tiny_config(
            network=NetworkConfig(kind=NetworkKind.MESH, link_width_bits=16)
        )
        streams = pad_streams([[("read", 4096), ("read", 2 * 4096)]], 4)
        system = run_streams(cfg, streams)
        assert system.stats.procs[0].read_stall > 0
        assert system.network.max_link_utilization(
            system.stats.execution_time
        ) > 0

    def test_wider_links_never_slower(self):
        def exec_time(width):
            cfg = tiny_config(
                network=NetworkConfig(
                    kind=NetworkKind.MESH, link_width_bits=width
                )
            )
            ops = [("read", 4096 + i * 32) for i in range(20)]
            return run_streams(cfg, pad_streams([ops], 4)).stats.execution_time

        assert exec_time(64) <= exec_time(16)
