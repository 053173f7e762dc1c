"""Tests for the one-tenant instruction pipeline: a lone layer's
MVIN/COMPUTE/MVOUT stream run through repro.accelerator.multitile."""

import pytest

from repro.accelerator.dma import MEM_REQUEST_BYTES
from repro.accelerator.isa import compute_rate_for, lower_layer, stream_totals
from repro.accelerator.moca_hw import MoCAHardwareEngine
from repro.accelerator.multitile import co_run_layers
from repro.config import DEFAULT_SOC
from repro.core.latency import estimate_layer
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.layers import ConvLayer, DenseLayer
from repro.models.zoo import build_model

SOC = DEFAULT_SOC
MEM = MemoryHierarchy.from_soc(SOC)
BW = MEM.dram_bandwidth


def _conv(ch=64, hw=56):
    return ConvLayer("c", in_h=hw, in_w=hw, in_ch=ch, out_ch=ch, kernel=3,
                     padding=1)


def _fc():
    """A memory-bound layer: AlexNet-class fully-connected."""
    return DenseLayer("fc", in_features=9216, out_features=4096)


def _alone(layer, cap=None, bandwidth=BW):
    """Makespan of ``layer`` run as the only tenant."""
    caps = None if cap is None else {"a": cap}
    return co_run_layers(SOC, bandwidth, {"a": layer}, caps=caps).makespan


def _engine_cap(threshold_load):
    """The DRAM cap (B/cycle) a MoCA engine throttle of
    ``threshold_load`` requests per 1000 cycles enforces."""
    engine = MoCAHardwareEngine()
    engine.configure(window=1000, threshold_load=threshold_load)
    return engine.allowed_rate() * MEM_REQUEST_BYTES


def _dma_bytes(layer):
    totals = stream_totals(lower_layer(layer, SOC))
    return totals["load_bytes"] + totals["store_bytes"]


def _array_and_dma_cycles(layer):
    """A lone tile's array time and its DMA time at full bandwidth."""
    totals = stream_totals(lower_layer(layer, SOC))
    return totals["macs"] / compute_rate_for(layer, SOC), _dma_bytes(layer) / BW


class TestPipelineBasics:
    def test_positive_makespan(self):
        array, dma = _array_and_dma_cycles(_conv())
        assert _alone(_conv()) > 0
        assert array > 0
        assert dma > 0

    def test_utilizations_bounded(self):
        makespan = _alone(_conv())
        array, dma = _array_and_dma_cycles(_conv())
        assert 0 < dma / makespan <= 1.0
        assert 0 < array / makespan <= 1.0

    def test_makespan_at_least_each_resource(self):
        for layer in (_fc(), _conv(), _conv(ch=128, hw=28)):
            array, dma = _array_and_dma_cycles(layer)
            makespan = _alone(layer)
            assert makespan >= array
            assert makespan >= dma

    def test_compute_bound_layer_array_dominated(self):
        # Large square conv: heavy reuse, compute dominates.
        array, dma = _array_and_dma_cycles(_conv(ch=128, hw=28))
        assert array > dma

    def test_memory_bound_layer_dma_dominated(self):
        array, dma = _array_and_dma_cycles(_fc())
        assert dma > array

    def test_invalid_dram_share(self):
        for share in (0.0, -1.0):
            with pytest.raises(ValueError):
                co_run_layers(SOC, share, {"a": _conv()})


class TestThrottling:
    def test_throttle_lengthens_memory_bound_layer(self):
        assert _alone(_fc(), cap=_engine_cap(125)) > _alone(_fc())

    def test_throttle_never_stalls_compute(self):
        # In-order execution: a cap adds exactly the extra transfer
        # time of every DMA byte and leaves compute untouched.
        cap = _engine_cap(63)  # ~4 B/cycle
        layers = [_fc(), _conv(), *build_model("resnet50").layers]
        for layer in layers:
            capped = _alone(layer, cap=cap)
            extra = _dma_bytes(layer) * (1 / cap - 1 / BW)
            assert capped - _alone(layer) == pytest.approx(
                extra, abs=1e-9 * capped
            ), layer.name

    def test_tighter_throttle_slower(self):
        # 16, 8 and ~4 B/cycle throttles.
        results = [_alone(_fc(), cap=_engine_cap(t)) for t in (250, 125, 63)]
        assert results == sorted(results)

    def test_dram_share_acts_like_throttle(self):
        assert _alone(_fc(), bandwidth=4.0) > _alone(_fc(), bandwidth=16.0)


class TestCrossValidation:
    """Instruction-level pipeline vs Algorithm 1 (single tile)."""

    @pytest.mark.parametrize("name", ["squeezenet", "alexnet", "resnet50"])
    def test_network_level_agreement(self, name):
        net = build_model(name)
        isa_total = sum(_alone(layer) for layer in net.layers)
        analytic_total = sum(
            estimate_layer(layer, SOC, MEM, num_tiles=1).prediction
            for layer in net.layers
        )
        ratio = isa_total / analytic_total
        # Different abstractions (in-order instructions vs the
        # overlap_f closed form): they must agree within ~35 %.
        assert 0.65 < ratio < 1.35, ratio

    def test_compute_bound_layer_agreement(self):
        layer = _conv(ch=128, hw=28)
        analytic = estimate_layer(layer, SOC, MEM, num_tiles=1).prediction
        assert _alone(layer) == pytest.approx(analytic, rel=0.35)
