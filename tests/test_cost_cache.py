"""Coverage for the cost-cache helpers: the network-cost cache and
its runtime tables, the invalidation hook, the order-sensitive
structural fingerprint and the cache telemetry."""

from dataclasses import replace

import pytest

import repro.core.latency as latency
from repro.config import DEFAULT_SOC
from repro.core.latency import (
    BlockCost,
    build_network_cost,
    cache_stats,
    clear_network_cost_cache,
    reset_cache_stats,
    warm_network_cost_cache,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model
from repro.sim.qos import QosModel


@pytest.fixture()
def cold_cache():
    clear_network_cost_cache()
    yield
    clear_network_cost_cache()


@pytest.fixture(scope="module")
def mem():
    return MemoryHierarchy.from_soc(DEFAULT_SOC)


class TestNetworkCostCache:
    def test_clear_forces_recompute(self, cold_cache, mem, monkeypatch):
        """clear_network_cost_cache() actually invalidates: the block
        build counter moves again after a clear."""
        calls = {"n": 0}
        real = latency.build_block_cost

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(latency, "build_block_cost", counting)
        net = build_model("kws")

        first = build_network_cost(net, DEFAULT_SOC, mem)
        built = calls["n"]
        assert built > 0

        again = build_network_cost(net, DEFAULT_SOC, mem)
        assert again is first
        assert calls["n"] == built  # pure cache hit

        clear_network_cost_cache()
        rebuilt = build_network_cost(net, DEFAULT_SOC, mem)
        assert calls["n"] == 2 * built  # recomputed from scratch
        assert rebuilt is not first
        assert rebuilt.blocks == first.blocks

    def test_keys_differ_across_memory_hierarchies(self, cold_cache, mem):
        net = build_model("kws")
        base = build_network_cost(net, DEFAULT_SOC, mem)
        assert len(latency._NETWORK_COST_CACHE) == 1

        fatter_dram = MemoryHierarchy(
            l2=mem.l2,
            dram=replace(
                mem.dram,
                peak_bytes_per_cycle=mem.dram.peak_bytes_per_cycle * 2,
            ),
        )
        other = build_network_cost(net, DEFAULT_SOC, fatter_dram)
        assert len(latency._NETWORK_COST_CACHE) == 2
        assert other is not base

    def test_keys_differ_across_block_granularity(self, cold_cache, mem):
        net = build_model("kws")
        coarse = build_network_cost(
            net, DEFAULT_SOC, mem, max_layers_per_block=6
        )
        fine = build_network_cost(
            net, DEFAULT_SOC, mem, max_layers_per_block=2
        )
        assert len(latency._NETWORK_COST_CACHE) == 2
        assert fine is not coarse
        # Same granularity again is a pure cache hit.
        assert build_network_cost(
            net, DEFAULT_SOC, mem, max_layers_per_block=2
        ) is fine
        assert len(latency._NETWORK_COST_CACHE) == 2


def _reorder_layers(net):
    """The same network with two middle layers swapped in place —
    aggregate totals (layer count, MAC sum, weight sum) are untouched,
    only the execution order moves."""
    layers = list(net.layers)
    i = len(layers) // 2
    layers[i - 1], layers[i] = layers[i], layers[i - 1]
    return replace(net, layers=tuple(layers))


class TestOrderSensitiveFingerprint:
    def test_reordering_is_a_cache_miss(self, cold_cache, mem):
        """ISSUE bugfix regression: a cached zoo model whose layers are
        reordered must MISS the network-cost cache.  The old
        fingerprint (name + layer count + total MACs/weights) is
        order-blind and aliased exactly this case."""
        net = build_model("resnet50")
        reordered = _reorder_layers(net)

        # The reordered model is indistinguishable to the old key ...
        assert reordered.name == net.name
        assert len(reordered.layers) == len(net.layers)
        assert reordered.total_macs == net.total_macs
        assert reordered.total_weight_bytes == net.total_weight_bytes
        # ... but not to the order-sensitive digest.
        assert reordered.structural_digest != net.structural_digest

        base = build_network_cost(net, DEFAULT_SOC, mem)
        assert len(latency._NETWORK_COST_CACHE) == 1
        other = build_network_cost(reordered, DEFAULT_SOC, mem)
        assert len(latency._NETWORK_COST_CACHE) == 2  # miss, not alias
        assert other is not base
        # Same model again is still a pure hit.
        assert build_network_cost(net, DEFAULT_SOC, mem) is base

    def test_digest_stable_for_equal_structure(self):
        net = build_model("kws")
        rebuilt = replace(net, layers=tuple(net.layers))
        assert rebuilt.structural_digest == net.structural_digest

    def test_forced_inplace_layer_swap_not_served_stale(self, cold_cache):
        """Even a forced in-place mutation of the frozen instance's
        layer tuple (object.__setattr__) recomputes the digest."""
        net = build_model("kws")
        before = net.structural_digest
        mutated = replace(net, layers=tuple(net.layers))
        swapped = _reorder_layers(net)
        object.__setattr__(mutated, "layers", swapped.layers)
        assert mutated.structural_digest != before
        assert mutated.structural_digest == swapped.structural_digest


class TestCacheTelemetry:
    def test_hit_miss_counters_move(self, cold_cache, mem):
        reset_cache_stats()
        net = build_model("kws")
        build_network_cost(net, DEFAULT_SOC, mem)
        stats = cache_stats()
        assert stats["cost_cache_misses"] == 1
        assert stats["cost_cache_hits"] == 0
        build_network_cost(net, DEFAULT_SOC, mem)
        stats = cache_stats()
        assert stats["cost_cache_hits"] == 1
        assert stats["cost_cache_misses"] == 1

    def test_warm_then_predict_is_all_hits(
        self, cold_cache, mem, monkeypatch
    ):
        """After warm_network_cost_cache, every full-bandwidth predict
        point the engine and the QoS sizing read is already in the
        network's runtime table: the build is a cost-cache hit and no
        block is evaluated again."""
        net = build_model("kws")
        warm_network_cost_cache([net], DEFAULT_SOC, mem)
        reset_cache_stats()
        calls = []
        real = BlockCost.predict
        monkeypatch.setattr(
            BlockCost, "predict",
            lambda self, *args: calls.append(args) or real(self, *args),
        )
        cost = build_network_cost(net, DEFAULT_SOC, mem)  # pure hit
        cost.runtime_table(
            mem.dram_bandwidth, mem.l2_bandwidth, DEFAULT_SOC.overlap_f,
            DEFAULT_SOC.num_tiles,
        )
        QosModel(DEFAULT_SOC).isolated_latency(net, mem, num_tiles=2)
        assert calls == []
        assert cache_stats() == {"cost_cache_hits": 2, "cost_cache_misses": 0}

    def test_reset_zeroes_counters_not_caches(self, cold_cache, mem):
        net = build_model("kws")
        first = build_network_cost(net, DEFAULT_SOC, mem)
        reset_cache_stats()
        assert all(v == 0 for v in cache_stats().values())
        assert build_network_cost(net, DEFAULT_SOC, mem) is first
