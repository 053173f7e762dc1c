"""Tests for repro.memory (L2, DRAM, hierarchy)."""

import pytest

from repro.config import DEFAULT_SOC
from repro.memory.arbiter import allocate_bandwidth
from repro.memory.dram import DramModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.l2 import L2Model


class TestL2Model:
    def test_from_soc(self):
        l2 = L2Model.from_soc(DEFAULT_SOC)
        assert l2.capacity_bytes == DEFAULT_SOC.l2_bytes
        assert l2.banks == 8

    def test_peak_bandwidth(self):
        l2 = L2Model.from_soc(DEFAULT_SOC)
        assert l2.peak_bandwidth == pytest.approx(128.0)

    def test_effective_capacity_partitions(self):
        l2 = L2Model.from_soc(DEFAULT_SOC)
        assert l2.effective_capacity(2) == pytest.approx(
            l2.effective_capacity(1) / 2
        )

    def test_fits_small(self):
        l2 = L2Model.from_soc(DEFAULT_SOC)
        assert l2.fits(1024)

    def test_does_not_fit_oversized(self):
        l2 = L2Model.from_soc(DEFAULT_SOC)
        assert not l2.fits(l2.capacity_bytes + 1)

    def test_sharers_evict(self):
        l2 = L2Model.from_soc(DEFAULT_SOC)
        size = int(l2.effective_capacity(1) * 0.6)
        assert l2.fits(size, num_sharers=1)
        assert not l2.fits(size, num_sharers=2)

    def test_invalid_sharers(self):
        with pytest.raises(ValueError):
            L2Model.from_soc(DEFAULT_SOC).effective_capacity(0)

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            L2Model.from_soc(DEFAULT_SOC).fits(-1)

    @pytest.mark.parametrize("kwargs", [
        dict(capacity_bytes=0, banks=8, bytes_per_bank_cycle=16),
        dict(capacity_bytes=1024, banks=0, bytes_per_bank_cycle=16),
        dict(capacity_bytes=1024, banks=8, bytes_per_bank_cycle=0),
        dict(capacity_bytes=1024, banks=8, bytes_per_bank_cycle=16,
             residency_fraction=0.0),
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            L2Model(**kwargs)


class TestDramModel:
    def test_from_soc(self):
        dram = DramModel.from_soc(DEFAULT_SOC)
        assert dram.peak_bytes_per_cycle == 16.0

    def test_usable_bandwidth(self):
        dram = DramModel(peak_bytes_per_cycle=16.0, efficiency=0.75)
        assert dram.usable_bandwidth == pytest.approx(12.0)

    def test_transfer_cycles(self):
        dram = DramModel(peak_bytes_per_cycle=16.0)
        assert dram.transfer_cycles(160) == pytest.approx(10.0)

    def test_transfer_negative(self):
        with pytest.raises(ValueError):
            DramModel(peak_bytes_per_cycle=16.0).transfer_cycles(-1)

    def test_single_stream_no_penalty(self):
        dram = DramModel.from_soc(DEFAULT_SOC)
        assert dram.effective_bandwidth(1, oversubscribed=True) == (
            dram.usable_bandwidth
        )

    def test_no_penalty_when_undersubscribed(self):
        dram = DramModel.from_soc(DEFAULT_SOC)
        assert dram.effective_bandwidth(4, oversubscribed=False) == (
            dram.usable_bandwidth
        )

    def test_penalty_grows_with_streams(self):
        dram = DramModel.from_soc(DEFAULT_SOC)
        b2 = dram.effective_bandwidth(2, oversubscribed=True)
        b4 = dram.effective_bandwidth(4, oversubscribed=True)
        b8 = dram.effective_bandwidth(8, oversubscribed=True)
        assert dram.usable_bandwidth > b2 > b4 > b8

    def test_penalty_bounded(self):
        dram = DramModel.from_soc(DEFAULT_SOC)
        floor = dram.usable_bandwidth * (1 - dram.contention_penalty)
        assert dram.effective_bandwidth(1000, oversubscribed=True) >= floor

    def test_negative_streams_raise(self):
        with pytest.raises(ValueError):
            DramModel.from_soc(DEFAULT_SOC).effective_bandwidth(-1, True)

    @pytest.mark.parametrize("kwargs", [
        dict(peak_bytes_per_cycle=0),
        dict(peak_bytes_per_cycle=16, efficiency=0),
        dict(peak_bytes_per_cycle=16, efficiency=1.5),
        dict(peak_bytes_per_cycle=16, contention_penalty=1.0),
        dict(peak_bytes_per_cycle=16, contention_penalty=-0.1),
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            DramModel(**kwargs)


class TestMemoryHierarchy:
    def test_from_soc(self):
        mem = MemoryHierarchy.from_soc(DEFAULT_SOC)
        assert mem.dram_bandwidth == pytest.approx(16.0)
        assert mem.l2_bandwidth == pytest.approx(128.0)

    def test_input_cached_small(self):
        mem = MemoryHierarchy.from_soc(DEFAULT_SOC)
        assert mem.input_cached(224 * 224 * 3)  # 147 KB fits in 2 MB

    def test_input_not_cached_large(self):
        mem = MemoryHierarchy.from_soc(DEFAULT_SOC)
        assert not mem.input_cached(4 * 1024 * 1024)

    def test_tile_cached(self):
        mem = MemoryHierarchy.from_soc(DEFAULT_SOC)
        assert mem.tile_cached(64 * 1024)

    def test_share_dram_empty(self):
        mem = MemoryHierarchy.from_soc(DEFAULT_SOC)
        assert allocate_bandwidth({}, mem.dram_bandwidth) == {}

    def test_share_dram_respects_total(self):
        mem = MemoryHierarchy.from_soc(DEFAULT_SOC)
        shares = allocate_bandwidth({"a": 20.0, "b": 20.0}, mem.dram_bandwidth)
        assert sum(shares.values()) <= mem.dram_bandwidth * 1.001
