"""Unit tests for UniviStorConfig."""

import warnings

import pytest

from repro.core.config import StorageTier, UniviStorConfig


class TestStorageTier:
    def test_node_local_classification(self):
        assert StorageTier.DRAM.is_node_local
        assert StorageTier.LOCAL_SSD.is_node_local
        assert not StorageTier.SHARED_BB.is_node_local
        assert not StorageTier.PFS.is_node_local

    def test_shared_is_complement(self):
        for tier in StorageTier:
            assert tier.is_shared != tier.is_node_local


class TestUniviStorConfig:
    def test_defaults(self):
        config = UniviStorConfig()
        assert config.interference_aware
        assert config.collective_open_close
        assert config.adaptive_striping
        assert config.location_aware_reads
        assert not config.workflow_enabled
        assert config.flush_enabled
        assert config.servers_per_node == 2  # §III-A

    def test_canned_variants(self):
        assert UniviStorConfig.dram_only().cache_tiers == (StorageTier.DRAM,)
        assert UniviStorConfig.bb_only().cache_tiers == (StorageTier.SHARED_BB,)
        assert UniviStorConfig.dram_bb().cache_tiers == (
            StorageTier.DRAM, StorageTier.SHARED_BB)
        assert UniviStorConfig.pfs_only().cache_tiers == ()

    def test_without_disables_flags(self):
        config = UniviStorConfig().without("interference_aware",
                                           "adaptive_striping")
        assert not config.interference_aware
        assert not config.adaptive_striping
        assert config.collective_open_close  # untouched

    def test_without_unknown_flag(self):
        with pytest.raises(ValueError):
            UniviStorConfig().without("warp_drive")

    def test_pfs_in_cache_tiers_rejected(self):
        with pytest.raises(ValueError):
            UniviStorConfig(cache_tiers=(StorageTier.PFS,))

    def test_duplicate_tiers_rejected(self):
        with pytest.raises(ValueError):
            UniviStorConfig(cache_tiers=(StorageTier.DRAM,
                                         StorageTier.DRAM))

    def test_invalid_servers_per_node(self):
        with pytest.raises(ValueError):
            UniviStorConfig(servers_per_node=0)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            UniviStorConfig(chunk_size=0)

    def test_workflow_enabled_kwarg_on_variants(self):
        assert UniviStorConfig.dram_only(workflow_enabled=True).workflow_enabled

    def test_frozen(self):
        with pytest.raises(Exception):
            UniviStorConfig().chunk_size = 1


class TestDeprecatedFields:
    """Fields inside or past their one-PR grace window (docs/API.md,
    "API stability")."""

    def test_defaults_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            UniviStorConfig()
            UniviStorConfig.hardened()
            UniviStorConfig.dram_only()

    def test_meta_batch_off_warns_and_still_applies(self):
        """Past its grace window: ``meta_batch`` is gone, so passing it
        is a TypeError and ``without`` rejects the name."""
        with pytest.raises(TypeError, match="meta_batch"):
            UniviStorConfig(meta_batch=False)
        with pytest.raises(ValueError, match="meta_batch"):
            UniviStorConfig().without("meta_batch")

    def test_engine_layout_range_checks_kept(self):
        """Past its grace window: the engine-layout fields are gone."""
        with pytest.raises(TypeError, match="engine_shards"):
            UniviStorConfig(engine_shards=0)
        with pytest.raises(TypeError, match="engine_bucket_width"):
            UniviStorConfig(engine_bucket_width=-1.0)

    def test_location_cache_off_warns_and_is_ignored(self):
        with pytest.warns(DeprecationWarning, match="location_cache") as rec:
            config = UniviStorConfig(location_cache=False)
        with pytest.warns(DeprecationWarning,
                          match="location_cache") as rec2:
            UniviStorConfig.dram_only().without("location_cache")
        # Attributed to the calling line, not to config.py or
        # dataclasses.py, so the default warning filter shows it when
        # the caller is a script.
        assert rec[0].filename == rec2[0].filename == __file__
        assert not config.location_cache
