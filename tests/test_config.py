"""Unit tests for the configuration objects."""

import pytest

from repro.config import (
    ALL_PROTOCOLS,
    SC_PROTOCOLS,
    CacheConfig,
    Consistency,
    NetworkConfig,
    NetworkKind,
    ProtocolConfig,
    SystemConfig,
    TimingConfig,
)


class TestProtocolConfig:
    def test_basic_name(self):
        assert ProtocolConfig().name == "BASIC"

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_roundtrip_names(self, name):
        assert ProtocolConfig.from_name(name).name == name

    def test_unknown_extension_rejected(self):
        with pytest.raises(ValueError):
            ProtocolConfig.from_name("P+XYZ")

    def test_unknown_extension_rejected_on_every_call(self):
        # the parse memo keeps successes only: an error is never cached
        for _ in range(3):
            with pytest.raises(ValueError, match="XYZ"):
                ProtocolConfig.from_name("P+XYZ")

    def test_spellings_share_one_memoized_config(self):
        configs = [ProtocolConfig.from_name(n)
                   for n in ("cw+p", "P,CW", "p+cw", "P+CW")]
        assert {c.name for c in configs} == {"P+CW"}
        assert len(set(configs)) == 1
        assert ProtocolConfig.from_name("cw+p") is configs[0]
        assert ProtocolConfig.from_name.cache_info().maxsize is not None

    def test_sc_suffix_stripped(self):
        assert ProtocolConfig.from_name("B-SC").name == "BASIC"

    def test_all_protocols_cover_the_paper(self):
        assert set(ALL_PROTOCOLS) == {
            "BASIC", "P", "CW", "M", "P+CW", "P+M", "CW+M", "P+CW+M",
        }
        assert set(SC_PROTOCOLS) == {"BASIC", "P", "M", "P+M"}


class TestSystemConfig:
    def test_defaults_match_paper(self):
        cfg = SystemConfig()
        assert cfg.n_procs == 16
        assert cfg.consistency is Consistency.RC
        assert cfg.cache.block_size == 32
        assert cfg.cache.page_size == 4096
        assert cfg.cache.flc_size == 4096
        assert cfg.cache.slc_size is None  # infinite
        assert cfg.cache.flwb_entries == 8
        assert cfg.cache.slwb_entries == 16
        assert cfg.network.uniform_latency == 54

    def test_local_memory_access_is_30_pclocks(self):
        assert TimingConfig().local_memory_access == 30

    def test_cw_under_sc_rejected(self):
        with pytest.raises(ValueError, match="release consistency"):
            SystemConfig(
                consistency=Consistency.SC,
                protocol=ProtocolConfig(competitive_update=True),
            )

    def test_with_protocol(self):
        cfg = SystemConfig().with_protocol("P+CW+M")
        assert cfg.protocol.prefetch
        assert cfg.protocol.competitive_update
        assert cfg.protocol.migratory

    def test_effective_slwb_single_entry_under_sc(self):
        sc = SystemConfig(consistency=Consistency.SC)
        assert sc.effective_slwb_entries == 1
        assert sc.effective_flwb_entries == 1

    def test_effective_slwb_multi_entry_for_prefetch_under_sc(self):
        # §5.2: "in P, the SLWB must keep track of pending prefetches"
        sc_p = SystemConfig(consistency=Consistency.SC).with_protocol("P")
        assert sc_p.effective_slwb_entries == 16

    def test_effective_buffers_under_rc(self):
        rc = SystemConfig()
        assert rc.effective_slwb_entries == 16
        assert rc.effective_flwb_entries == 8

    def test_needs_at_least_one_processor(self):
        with pytest.raises(ValueError):
            SystemConfig(n_procs=0)


class TestCacheConfig:
    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(block_size=24)

    def test_flc_multiple_of_block(self):
        with pytest.raises(ValueError):
            CacheConfig(flc_size=100)

    def test_bounded_slc_multiple_of_block(self):
        with pytest.raises(ValueError):
            CacheConfig(slc_size=100)
        assert CacheConfig(slc_size=16 * 1024).slc_size == 16384


class TestNetworkConfig:
    def test_default_is_uniform(self):
        assert NetworkConfig().kind is NetworkKind.UNIFORM

    def test_mesh_links(self):
        cfg = NetworkConfig(kind=NetworkKind.MESH, link_width_bits=16)
        assert cfg.link_width_bits == 16
