"""Tests for repro.experiments.sweeps (appendix-F customization)."""

import dataclasses

import pytest

from repro.experiments.sweeps import (
    SweepPoint,
    format_sweep,
    sweep_dram_bandwidth,
    sweep_l2_capacity,
    sweep_num_tiles,
)


class TestSweepPoint:
    def test_advantage(self):
        p = SweepPoint(label="x", moca_sla=0.8, static_sla=0.4)
        assert p.advantage == pytest.approx(2.0)

    def test_advantage_zero_static(self):
        p = SweepPoint(label="x", moca_sla=0.8, static_sla=0.0)
        assert p.advantage == float("inf")


class TestSweeps:
    def test_dram_sweep_points(self):
        points = sweep_dram_bandwidth(values=(8.0, 16.0), num_tasks=24,
                                      seeds=(1,))
        assert [p.label for p in points] == ["8 B/cyc", "16 B/cyc"]
        assert all(0.0 <= p.moca_sla <= 1.0 for p in points)

    def test_l2_sweep_points(self):
        points = sweep_l2_capacity(values=(2 * 1024 * 1024,), num_tasks=24,
                                   seeds=(1,))
        assert points[0].label == "2 MiB"

    def test_tiles_sweep_points(self):
        points = sweep_num_tiles(values=(4, 8), num_tasks=24, seeds=(1,))
        assert [p.label for p in points] == ["4 tiles", "8 tiles"]

    def test_format(self):
        points = [SweepPoint(label="a", moca_sla=0.5, static_sla=0.25)]
        text = format_sweep("title", points)
        assert "title" in text
        assert "2.00x" in text


class TestSweepCellsThroughRunMatrix:
    """Sweep cells run through the one cell builder
    (``run_matrix``); the points equal a plain generate-and-simulate
    loop bit for bit."""

    @staticmethod
    def _plain(soc, num_tasks, seeds):
        from repro.baselines.static_partition import StaticPartitionPolicy
        from repro.core.policy import MoCAPolicy
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.metrics import summarize
        from repro.models.zoo import workload_set
        from repro.sim.engine import run_simulation
        from repro.sim.qos import QosLevel, QosModel
        from repro.sim.workload import WorkloadConfig, WorkloadGenerator

        mem = MemoryHierarchy.from_soc(soc)
        gen = WorkloadGenerator(soc, workload_set("C"), mem,
                                QosModel(soc, slack_factor=2.0))
        rates = {"moca": [], "static": []}
        for seed in seeds:
            tasks = gen.generate(WorkloadConfig(
                num_tasks=num_tasks, qos_level=QosLevel.HARD,
                load_factor=0.7, seed=seed,
            ))
            for name, policy in (("moca", MoCAPolicy()),
                                 ("static", StaticPartitionPolicy())):
                result = run_simulation(soc, tasks, policy, mem=mem)
                rates[name].append(summarize(name, result.results).sla_rate)
        return tuple(sum(r) / len(r) for r in rates.values())

    @pytest.mark.parametrize("mutate", [
        lambda soc: soc,
        lambda soc: dataclasses.replace(
            soc, dram_bandwidth_bytes_per_cycle=8.0
        ),
        lambda soc: soc.with_tiles(4),
    ], ids=["default", "8B-per-cycle", "4-tiles"])
    def test_points_match_plain_loop(self, mutate):
        from repro.config import DEFAULT_SOC
        from repro.experiments.sweeps import _evaluate

        soc = mutate(DEFAULT_SOC)
        assert _evaluate(soc, 16, (1, 2)) == self._plain(soc, 16, (1, 2))
