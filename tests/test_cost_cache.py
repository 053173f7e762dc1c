"""Coverage for the PR 1 cost-cache helpers: the network-cost cache,
the per-block predict memos, their invalidation hooks, the
order-sensitive structural fingerprint and the cache telemetry."""

from dataclasses import replace

import pytest

import repro.core.latency as latency
from repro.config import DEFAULT_SOC
from repro.core.latency import (
    BlockCost,
    build_network_cost,
    cache_stats,
    clear_network_cost_cache,
    clear_predict_memos,
    reset_cache_stats,
    warm_network_cost_cache,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model


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

    def test_warm_then_predict_is_all_hits(self, cold_cache, mem):
        """After warm_network_cost_cache, every full-bandwidth predict
        point the engine evaluates is a memo hit."""
        net = build_model("kws")
        warm_network_cost_cache([net], DEFAULT_SOC, mem)
        reset_cache_stats()
        cost = build_network_cost(net, DEFAULT_SOC, mem)  # pure hit
        for block in cost.blocks:
            for tiles in range(1, DEFAULT_SOC.num_tiles + 1):
                block.predict(
                    tiles, mem.dram_bandwidth, mem.l2_bandwidth,
                    DEFAULT_SOC.overlap_f,
                )
        stats = cache_stats()
        assert stats["predict_memo_misses"] == 0
        assert stats["predict_memo_hits"] > 0
        assert stats["cost_cache_hits"] == 1  # the build above

    def test_reset_zeroes_counters_not_caches(self, cold_cache, mem):
        net = build_model("kws")
        first = build_network_cost(net, DEFAULT_SOC, mem)
        reset_cache_stats()
        assert all(v == 0 for v in cache_stats().values())
        assert build_network_cost(net, DEFAULT_SOC, mem) is first


class TestPredictMemoLRU:
    def _point(self, mem, scale=1.0):
        return (
            1, mem.dram_bandwidth * scale, mem.l2_bandwidth,
            DEFAULT_SOC.overlap_f,
        )

    def test_cap_bounds_memo(self, cold_cache, mem, monkeypatch):
        """ISSUE satellite: the per-block predict memo is bounded —
        flooding it with distinct bandwidth points (what a long
        continuous-style run does) evicts instead of growing without
        limit, and an evicted point recomputes the identical float."""
        monkeypatch.setattr(latency, "_PREDICT_MEMO_CAP", 8)
        cost = build_network_cost(build_model("kws"), DEFAULT_SOC, mem)
        block = cost.blocks[0]
        block.clear_predict_memo()
        first_point = self._point(mem)
        baseline = block.predict(*first_point)
        for i in range(1, 50):
            block.predict(*self._point(mem, scale=1.0 / (1.0 + i)))
        memo = block.__dict__["_predict_memo"]
        assert len(memo) <= 8
        assert first_point not in memo  # evicted by the flood
        assert block.predict(*first_point) == baseline

    def test_hits_refresh_recency(self, cold_cache, mem, monkeypatch):
        """A hit moves its entry to most-recently-used: after probing
        cap distinct points, re-hitting the oldest and inserting one
        more evicts the *second*-oldest, not the re-hit one."""
        monkeypatch.setattr(latency, "_PREDICT_MEMO_CAP", 4)
        cost = build_network_cost(build_model("kws"), DEFAULT_SOC, mem)
        block = cost.blocks[0]
        block.clear_predict_memo()
        points = [
            self._point(mem, scale=1.0 / (1.0 + i)) for i in range(4)
        ]
        for p in points:
            block.predict(*p)
        block.predict(*points[0])  # refresh the oldest
        block.predict(*self._point(mem, scale=0.01))  # force eviction
        memo = block.__dict__["_predict_memo"]
        assert points[0] in memo
        assert points[1] not in memo

    def test_eviction_never_changes_metrics(
        self, cold_cache, monkeypatch
    ):
        """A full MoCA simulation with the predict memo capped to a
        pathologically tiny size produces bit-identical results to
        the unbounded run — eviction is identity-pinned, it can only
        cost time, never change a number."""
        from repro.core.policy import MoCAPolicy
        from repro.sim.engine import run_simulation
        from repro.sim.qos import QosLevel
        from repro.sim.workload import WorkloadConfig, WorkloadGenerator
        from repro.models.zoo import workload_set

        mem = MemoryHierarchy.from_soc(DEFAULT_SOC)
        gen = WorkloadGenerator(DEFAULT_SOC, workload_set("A"), mem)
        tasks = gen.generate(
            WorkloadConfig(
                num_tasks=16, qos_level=QosLevel.MEDIUM, seed=7
            )
        )

        def run():
            clear_network_cost_cache()
            clear_predict_memos()
            return run_simulation(
                DEFAULT_SOC, tasks, MoCAPolicy(), mem=mem
            )

        reference = run()
        monkeypatch.setattr(latency, "_PREDICT_MEMO_CAP", 4)
        capped = run()
        assert capped.results == reference.results
        assert capped.makespan == reference.makespan


class TestPredictMemo:
    def test_clear_predict_memos_invalidates(
        self, cold_cache, mem, monkeypatch
    ):
        """clear_predict_memos() drops the per-block memo of every
        cached cost: the compute counter moves again after a clear."""
        cost = build_network_cost(build_model("kws"), DEFAULT_SOC, mem)
        block = cost.blocks[0]
        point = (4, mem.dram_bandwidth, mem.l2_bandwidth,
                 DEFAULT_SOC.overlap_f)

        calls = {"n": 0}
        real = BlockCost.compute_ideal

        def counting(self, num_tiles):
            calls["n"] += 1
            return real(self, num_tiles)

        monkeypatch.setattr(BlockCost, "compute_ideal", counting)
        block.clear_predict_memo()

        first = block.predict(*point)
        assert calls["n"] == 1
        assert block.predict(*point) == first
        assert calls["n"] == 1  # memo hit, no recompute

        clear_predict_memos()
        assert block.predict(*point) == first
        assert calls["n"] == 2  # memo dropped, recomputed
