"""Tests for repro.core.latency (Algorithm 1)."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.config import DEFAULT_SOC
from repro.core.latency import (
    BlockCost,
    EstimationError,
    build_block_cost,
    build_network_cost,
    clear_network_cost_cache,
    estimate_layer,
    estimate_network,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.blocks import LayerBlock, partition_into_blocks
from repro.models.layers import (
    ConvLayer,
    DenseLayer,
    LayerKind,
    PoolLayer,
    ResidualAddLayer,
)
from repro.models.zoo import build_model, model_names

SOC = DEFAULT_SOC
MEM = MemoryHierarchy.from_soc(SOC)


def _conv(ch=64):
    return ConvLayer("c", in_h=28, in_w=28, in_ch=ch, out_ch=ch, kernel=3,
                     padding=1)


class TestEstimateLayerCompute:
    def test_compute_path_populated(self):
        est = estimate_layer(_conv(), SOC, MEM, num_tiles=1)
        assert est.kind is LayerKind.COMPUTE
        assert est.compute_ideal > 0
        assert est.memory_ideal > 0
        assert est.prediction > 0

    def test_prediction_is_overlap_formula(self):
        est = estimate_layer(_conv(), SOC, MEM, num_tiles=1)
        hi = max(est.compute_ideal, est.memory_ideal)
        lo = min(est.compute_ideal, est.memory_ideal)
        assert est.prediction == pytest.approx(hi + lo * SOC.overlap_f)

    def test_from_dram_includes_weights_and_outputs(self):
        conv = _conv()
        est = estimate_layer(conv, SOC, MEM, num_tiles=1)
        base = conv.weight_bytes + conv.output_bytes + conv.bias_bytes
        assert est.from_dram_bytes >= base

    def test_cached_input_not_refetched(self):
        conv = _conv()
        est = estimate_layer(conv, SOC, MEM, num_tiles=1, num_sharers=1)
        base = conv.weight_bytes + conv.output_bytes + conv.bias_bytes
        # 28x28x64 input easily fits in the 2 MB L2.
        assert est.from_dram_bytes == pytest.approx(base)

    def test_uncached_input_refetched_under_sharing(self):
        # 224x224x16 = 802 KB: resident when alone in the 2 MB L2, but
        # evicted once eight applications share the capacity.
        mid = ConvLayer("c", in_h=224, in_w=224, in_ch=16, out_ch=16,
                        kernel=3, padding=1)
        est1 = estimate_layer(mid, SOC, MEM, num_tiles=1, num_sharers=1)
        est8 = estimate_layer(mid, SOC, MEM, num_tiles=1, num_sharers=8)
        assert est8.from_dram_bytes > est1.from_dram_bytes

    def test_more_tiles_lower_compute(self):
        conv = _conv()
        e1 = estimate_layer(conv, SOC, MEM, num_tiles=1)
        e4 = estimate_layer(conv, SOC, MEM, num_tiles=4)
        assert e4.compute_ideal < e1.compute_ideal

    def test_lower_bandwidth_higher_memory_time(self):
        conv = _conv()
        full = estimate_layer(conv, SOC, MEM, num_tiles=1)
        slow = estimate_layer(conv, SOC, MEM, num_tiles=1, dram_bw=1.0)
        assert slow.memory_ideal > full.memory_ideal

    def test_bw_demand_definition(self):
        est = estimate_layer(_conv(), SOC, MEM, num_tiles=1)
        assert est.bw_demand == pytest.approx(
            est.from_dram_bytes / est.prediction
        )

    def test_invalid_tiles(self):
        with pytest.raises(EstimationError):
            estimate_layer(_conv(), SOC, MEM, num_tiles=0)

    def test_invalid_sharers(self):
        with pytest.raises(EstimationError):
            estimate_layer(_conv(), SOC, MEM, num_sharers=0)

    def test_invalid_bw(self):
        with pytest.raises(EstimationError):
            estimate_layer(_conv(), SOC, MEM, dram_bw=0.0)


class TestEstimateLayerMem:
    def test_residual_add_path(self):
        add = ResidualAddLayer("a", h=28, w=28, channels=64)
        est = estimate_layer(add, SOC, MEM, num_tiles=1)
        assert est.kind is LayerKind.MEM
        assert est.compute_ideal == 0.0
        # From DRAM: skip operand + output.
        assert est.from_dram_bytes == pytest.approx(
            add.skip_operand_bytes + add.output_bytes
        )

    def test_mem_prediction_is_sum_of_terms(self):
        add = ResidualAddLayer("a", h=28, w=28, channels=64)
        est = estimate_layer(add, SOC, MEM, num_tiles=1)
        expected = (est.from_dram_bytes / MEM.dram_bandwidth
                    + est.total_mem_bytes / MEM.l2_bandwidth)
        assert est.prediction == pytest.approx(expected)

    def test_small_pool_input_cached(self):
        pool = PoolLayer("p", in_h=28, in_w=28, channels=64, kernel=2,
                         stride=2)
        est = estimate_layer(pool, SOC, MEM, num_tiles=1)
        assert est.from_dram_bytes == pytest.approx(pool.output_bytes)

    def test_huge_pool_input_spills(self):
        pool = PoolLayer("p", in_h=416, in_w=416, channels=32, kernel=2,
                         stride=2)
        est = estimate_layer(pool, SOC, MEM, num_tiles=1)
        assert est.from_dram_bytes > pool.output_bytes

    def test_mem_layer_tiles_irrelevant(self):
        add = ResidualAddLayer("a", h=28, w=28, channels=64)
        e1 = estimate_layer(add, SOC, MEM, num_tiles=1)
        e8 = estimate_layer(add, SOC, MEM, num_tiles=8)
        assert e1.prediction == pytest.approx(e8.prediction)


class TestBlockCost:
    def _block_cost(self):
        block = LayerBlock(0, layers=(_conv(), _conv(128)))
        return build_block_cost(block, SOC, MEM)

    def test_aggregates_layers(self):
        block = LayerBlock(0, layers=(_conv(), _conv(128)))
        cost = build_block_cost(block, SOC, MEM)
        parts = [estimate_layer(l, SOC, MEM) for l in block.layers]
        assert cost.from_dram_bytes == pytest.approx(
            sum(p.from_dram_bytes for p in parts)
        )
        assert cost.total_mem_bytes == pytest.approx(
            sum(p.total_mem_bytes for p in parts)
        )

    def test_predict_monotone_in_tiles(self):
        cost = self._block_cost()
        times = [
            cost.predict(k, MEM.dram_bandwidth, MEM.l2_bandwidth,
                         SOC.overlap_f)
            for k in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)

    def test_predict_monotone_in_bandwidth(self):
        cost = self._block_cost()
        slow = cost.predict(2, 2.0, MEM.l2_bandwidth, SOC.overlap_f)
        fast = cost.predict(2, 16.0, MEM.l2_bandwidth, SOC.overlap_f)
        assert slow >= fast

    def test_bw_demand_positive(self):
        cost = self._block_cost()
        assert cost.bw_demand(2, MEM.dram_bandwidth, MEM.l2_bandwidth,
                              SOC.overlap_f) > 0

    def test_mem_block_no_compute_terms(self):
        block = LayerBlock(0, layers=(
            ResidualAddLayer("a", h=28, w=28, channels=64),
        ))
        cost = build_block_cost(block, SOC, MEM)
        assert cost.compute_terms == ()
        assert cost.compute_ideal(4) == 0.0

    def test_invalid_tiles(self):
        with pytest.raises(EstimationError):
            self._block_cost().compute_ideal(0)

    def test_invalid_bandwidths(self):
        with pytest.raises(EstimationError):
            self._block_cost().memory_ideal(0.0, 128.0)

    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.5, max_value=16.0))
    def test_property_prediction_positive(self, tiles, bw):
        cost = self._block_cost()
        assert cost.predict(tiles, bw, MEM.l2_bandwidth, SOC.overlap_f) > 0


def _total_from_dram(cost):
    return sum(b.from_dram_bytes for b in cost.blocks)


class TestNetworkCost:
    def test_blocks_match_partition(self):
        net = build_model("squeezenet")
        cost = build_network_cost(net, SOC, MEM)
        blocks = partition_into_blocks(net)
        assert len(cost.blocks) == len(blocks)

    def test_cache_returns_same_object(self):
        net = build_model("alexnet")
        a = build_network_cost(net, SOC, MEM)
        b = build_network_cost(net, SOC, MEM)
        assert a is b

    def test_cache_distinguishes_sharers(self):
        net = build_model("alexnet")
        a = build_network_cost(net, SOC, MEM, num_sharers=1)
        b = build_network_cost(net, SOC, MEM, num_sharers=4)
        assert a is not b
        assert _total_from_dram(b) >= _total_from_dram(a)

    def test_cache_distinguishes_soc(self):
        net = build_model("alexnet")
        soc2 = dataclasses.replace(SOC, multi_tile_alpha=0.9)
        a = build_network_cost(net, SOC, MEM)
        b = build_network_cost(net, soc2, MemoryHierarchy.from_soc(soc2))
        assert a is not b

    def test_total_prediction_sums_blocks(self):
        cost = build_network_cost(build_model("kws"), SOC, MEM)
        total = cost.total_prediction(2, MEM.dram_bandwidth,
                                      MEM.l2_bandwidth, SOC.overlap_f)
        parts = sum(
            b.predict(2, MEM.dram_bandwidth, MEM.l2_bandwidth, SOC.overlap_f)
            for b in cost.blocks
        )
        assert total == pytest.approx(parts)

    def test_alexnet_is_most_bandwidth_hungry(self):
        # Network-average DRAM demand (Alg. 3 line 7's
        # EstimatedAvg_BW): whole-network traffic over latency.
        demands = {}
        for name in model_names():
            cost = build_network_cost(build_model(name), SOC, MEM)
            demands[name] = _total_from_dram(cost) / cost.total_prediction(
                2, MEM.dram_bandwidth, MEM.l2_bandwidth, SOC.overlap_f
            )
        assert max(demands, key=demands.get) == "alexnet"


class TestEstimateNetwork:
    @pytest.mark.parametrize("name", model_names())
    def test_all_networks_estimable(self, name):
        total, layers = estimate_network(build_model(name), SOC, MEM,
                                         num_tiles=2)
        assert total > 0
        assert len(layers) == len(build_model(name))

    def test_more_tiles_never_slower(self):
        net = build_model("resnet50")
        t2, _ = estimate_network(net, SOC, MEM, num_tiles=2)
        t8, _ = estimate_network(net, SOC, MEM, num_tiles=8)
        assert t8 <= t2

    def test_alexnet_poor_tile_scaling(self):
        # AlexNet is dominated by memory-bound FC layers: 8 tiles barely
        # help (the paper's motivation for its contention sensitivity).
        net = build_model("alexnet")
        t1, _ = estimate_network(net, SOC, MEM, num_tiles=1)
        t8, _ = estimate_network(net, SOC, MEM, num_tiles=8)
        assert t1 / t8 < 2.5

    def test_resnet_good_tile_scaling(self):
        net = build_model("resnet50")
        t1, _ = estimate_network(net, SOC, MEM, num_tiles=8)
        t8, _ = estimate_network(net, SOC, MEM, num_tiles=1)
        assert t8 / t1 > 3.0


class TestNetworkCostCache:
    """The memo key must cover every input the block accounting reads
    (the seed omitted the memory hierarchy and the block granularity,
    so differing configurations returned stale entries)."""

    def test_block_granularity_not_aliased(self):
        net = build_model("alexnet")
        coarse = build_network_cost(net, SOC, MEM, max_layers_per_block=6)
        fine = build_network_cost(net, SOC, MEM, max_layers_per_block=1)
        assert len(fine.blocks) > len(coarse.blocks)

    def test_memory_hierarchy_not_aliased(self):
        net = build_model("alexnet")
        small_soc = dataclasses.replace(SOC, l2_bytes=64 * 1024)
        small_mem = MemoryHierarchy.from_soc(small_soc)
        default = build_network_cost(net, SOC, MEM)
        tiny_l2 = build_network_cost(net, SOC, small_mem)
        # A 64 KiB L2 can keep almost nothing resident: DRAM traffic
        # must strictly grow, not alias the 2 MiB entry.
        assert _total_from_dram(tiny_l2) > _total_from_dram(default)

    def test_repeated_build_is_cached(self):
        net = build_model("kws")
        a = build_network_cost(net, SOC, MEM)
        b = build_network_cost(net, SOC, MEM)
        assert a is b

    def test_clear_cache(self):
        net = build_model("kws")
        a = build_network_cost(net, SOC, MEM)
        clear_network_cost_cache()
        b = build_network_cost(net, SOC, MEM)
        assert a is not b
        assert a.blocks == b.blocks
