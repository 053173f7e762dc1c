"""Ablation: instruction-level execution vs Algorithm 1.

Executes every layer of every benchmark network alone on the
instruction-level co-simulation (Gemmini-style mvin/compute/mvout
streams, run in order one instruction at a time, so a tile's memory
and compute phases add up rather than overlap) and compares network
totals against Algorithm 1's closed form — the instruction-level
analogue of the paper's FireSim validation.  Also quantifies what
throttling costs a memory-bound network vs a compute-bound one, the
asymmetry MoCA's design exploits.
"""

import pytest

from repro.accelerator.dma import MEM_REQUEST_BYTES
from repro.accelerator.moca_hw import MoCAHardwareEngine
from repro.accelerator.multitile import co_run_layers
from repro.config import DEFAULT_SOC
from repro.core.latency import estimate_layer
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model, model_names

SOC = DEFAULT_SOC
MEM = MemoryHierarchy.from_soc(SOC)


def _network_totals():
    rows = {}
    for name in model_names():
        net = build_model(name)
        isa = sum(
            co_run_layers(SOC, MEM.dram_bandwidth, {"a": l}).makespan
            for l in net.layers
        )
        analytic = sum(
            estimate_layer(l, SOC, MEM, num_tiles=1).prediction
            for l in net.layers
        )
        rows[name] = (isa, analytic, isa / analytic)
    return rows


def test_isa_pipeline_crosscheck(benchmark):
    rows = benchmark.pedantic(_network_totals, rounds=1, iterations=1)

    print()
    print("Instruction-level execution vs Algorithm 1 (1 tile):")
    print(f"{'network':<12s}{'isa Mcyc':>15s}{'analytic Mcyc':>15s}"
          f"{'ratio':>8s}")
    for name, (isa, analytic, ratio) in rows.items():
        print(f"{name:<12s}{isa / 1e6:>15.3f}{analytic / 1e6:>15.3f}"
              f"{ratio:>8.3f}")

    # Shape: the two abstractions agree within ~35 % on every network.
    for name, (_, _, ratio) in rows.items():
        assert 0.65 < ratio < 1.35, name

    # Shape: throttling hurts a memory-bound network (AlexNet) far more
    # than a compute-bound one (KWS) — the asymmetry behind MoCA's
    # memory-centric design.
    def throttled_slowdown(model_name, bytes_per_cycle=4.0):
        net = build_model(model_name)
        free = throttled = 0.0
        for layer in net.layers:
            free += co_run_layers(SOC, MEM.dram_bandwidth,
                                  {"a": layer}).makespan
            engine = MoCAHardwareEngine()
            engine.configure(window=1000,
                             threshold_load=int(bytes_per_cycle / 64 * 1000))
            cap = engine.allowed_rate() * MEM_REQUEST_BYTES
            throttled += co_run_layers(SOC, MEM.dram_bandwidth, {"a": layer},
                                       caps={"a": cap}).makespan
        return throttled / free

    alexnet_slowdown = throttled_slowdown("alexnet")
    kws_slowdown = throttled_slowdown("kws")
    print(f"4 B/cycle throttle slowdown: alexnet {alexnet_slowdown:.2f}x, "
          f"kws {kws_slowdown:.2f}x")
    assert alexnet_slowdown > kws_slowdown
    assert alexnet_slowdown > 1.5
    assert kws_slowdown < 1.5
