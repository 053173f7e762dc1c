"""Tests for the static-partition baseline."""

import pytest

from repro.baselines.static_partition import StaticPartitionPolicy
from repro.sim.engine import Simulator, run_simulation


class TestStaticPartition:
    def test_invalid_slot(self):
        with pytest.raises(ValueError):
            StaticPartitionPolicy(tiles_per_slot=0)

    def test_admits_fcfs(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id="late", dispatch=100.0),
            task_factory(task_id="early", dispatch=0.0),
        ]
        policy = StaticPartitionPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem, trace=True)
        sim.run()
        starts = sim.trace.of_kind(
            __import__("repro.sim.trace", fromlist=["TraceEvent"]).TraceEvent.START
        )
        assert starts[0].job_id == "early"

    def test_four_slots_on_default_soc(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(6)]
        policy = StaticPartitionPolicy(tiles_per_slot=2)
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert len(sim.running) == 4
        assert sim.free_tiles == 0

    def test_never_repartitions(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", network="squeezenet")
                 for i in range(6)]
        result = run_simulation(soc, tasks, StaticPartitionPolicy(), mem=mem)
        assert all(r.tile_repartitions == 0 for r in result.results)
        assert all(r.preemptions == 0 for r in result.results)

    def test_all_tasks_finish(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", network=n)
                 for i, n in enumerate(["kws", "alexnet", "yolo_lite",
                                        "squeezenet", "googlenet"])]
        result = run_simulation(soc, tasks, StaticPartitionPolicy(), mem=mem)
        assert len(result.results) == 5

    def test_bigger_slots_fewer_concurrent(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(4)]
        policy = StaticPartitionPolicy(tiles_per_slot=4)
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert len(sim.running) == 2
