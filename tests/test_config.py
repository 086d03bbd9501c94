"""Configuration objects."""

import os

import pytest

from repro.config import (CacheConfig, DebugCostConfig, DiseConfig,
                          MachineConfig, TlbConfig, default_scale)


def test_defaults_match_paper_machine():
    config = MachineConfig()
    assert config.pipeline.commit_width == 4
    assert config.icache.size_bytes == 32 * 1024
    assert config.icache.associativity == 2
    assert config.l2.size_bytes == 1024 * 1024
    assert config.l2.associativity == 4
    assert config.itlb.entries == 64
    assert config.mem_timing.memory == 100
    assert config.dise.pattern_table_entries == 32
    assert config.dise.replacement_table_instructions == 512
    assert config.debug_costs.spurious_transition_cycles == 100_000
    assert config.debug_costs.user_transition_cycles == 0
    assert config.branch_predictor_entries == 8192
    assert config.btb_entries == 2048
    assert not config.multithreaded_dise_calls


def test_with_replaces_fields():
    config = MachineConfig().with_(multithreaded_dise_calls=True)
    assert config.multithreaded_dise_calls
    assert not MachineConfig().multithreaded_dise_calls  # original intact


def test_config_hashable_for_cache_keys():
    a = MachineConfig()
    b = MachineConfig()
    assert hash(a) == hash(b)
    assert a == b
    assert hash(a.with_(page_bytes=128)) != hash(a) or \
        a.with_(page_bytes=128) != a


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, associativity=3)
    assert CacheConfig(size_bytes=32 * 1024,
                       associativity=2).num_sets == 256


def test_tlb_sets():
    assert TlbConfig(entries=64, associativity=4).num_sets == 16


def test_default_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2.5")
    assert default_scale() == 2.5
    monkeypatch.setenv("REPRO_SCALE", "junk")
    assert default_scale() == 1.0
    monkeypatch.delenv("REPRO_SCALE")
    assert default_scale() == 1.0


def test_frozen():
    with pytest.raises(Exception):
        MachineConfig().page_bytes = 8192
    with pytest.raises(Exception):
        DiseConfig().pattern_table_entries = 64
