"""Tests for the Planaria dynamic-fission baseline."""

import pytest

from repro.baselines.planaria import PlanariaPolicy
from repro.sim.engine import Simulator, run_simulation


def _sim(soc, mem, tasks, policy):
    policy.reset()
    return Simulator(soc, tasks, policy, mem=mem)


class TestConstruction:
    def test_invalid_concurrency(self):
        with pytest.raises(ValueError):
            PlanariaPolicy(max_concurrent=0)

    def test_invalid_min_tiles(self):
        with pytest.raises(ValueError):
            PlanariaPolicy(min_tiles=0)


class TestFission:
    def test_single_job_gets_all_tiles(self, soc, mem, task_factory):
        tasks = [task_factory(task_id="a")]
        policy = PlanariaPolicy()
        sim = _sim(soc, mem, tasks, policy)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert sim.running[0].tiles == soc.num_tiles

    def test_tiles_fully_apportioned(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", priority=i * 3)
                 for i in range(4)]
        policy = PlanariaPolicy()
        sim = _sim(soc, mem, tasks, policy)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert sum(j.tiles for j in sim.running) == soc.num_tiles

    def test_priority_weighted_shares(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id="low", priority=0),
            task_factory(task_id="high", priority=11),
        ]
        policy = PlanariaPolicy()
        sim = _sim(soc, mem, tasks, policy)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        by_id = {j.job_id: j.tiles for j in sim.running}
        assert by_id["high"] > by_id["low"]

    def test_everyone_gets_min_tiles(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", priority=(11 if i == 0 else 0))
                 for i in range(4)]
        policy = PlanariaPolicy()
        sim = _sim(soc, mem, tasks, policy)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert all(j.tiles >= policy.min_tiles for j in sim.running)

    def test_max_concurrent_respected(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(8)]
        policy = PlanariaPolicy(max_concurrent=4)
        sim = _sim(soc, mem, tasks, policy)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert len(sim.running) == 4


class TestMigrationCost:
    def test_repartitions_charged(self, soc, mem, task_factory):
        # Staggered arrivals force refissions of running jobs.
        tasks = [
            task_factory(task_id=f"t{i}", network="resnet50",
                         dispatch=i * 2e6)
            for i in range(4)
        ]
        result = run_simulation(soc, tasks, PlanariaPolicy(), mem=mem)
        total_reparts = sum(r.tile_repartitions for r in result.results)
        total_stall = sum(r.stall_cycles for r in result.results)
        assert total_reparts > 0
        assert total_stall >= total_reparts * 0.9e6

    def test_light_models_suffer_relatively_more(self, soc, mem,
                                                 task_factory):
        # The 1 M-cycle migration is comparable to a light model's whole
        # runtime — the paper's Workload-A QoS-H collapse mechanism.
        light = task_factory(task_id="x", network="squeezenet")
        assert light.isolated_cycles < 5e6

    def test_all_finish_under_churn(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}",
                         network=["kws", "squeezenet", "alexnet",
                                  "resnet50"][i % 4],
                         dispatch=i * 1e6, priority=i % 12)
            for i in range(8)
        ]
        result = run_simulation(soc, tasks, PlanariaPolicy(), mem=mem)
        assert len(result.results) == 8

    def test_no_bandwidth_management(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", network="alexnet")
                 for i in range(4)]
        policy = PlanariaPolicy()
        sim = _sim(soc, mem, tasks, policy)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert all(j.bw_cap is None for j in sim.running)
