"""Tests for the PREMA temporal-multiplexing baseline."""

import pytest

from repro.baselines.prema import PremaPolicy
from repro.sim.engine import Simulator, run_simulation
from repro.sim.job import Job


class TestTokens:
    def test_tokens_grow_with_wait(self, task_factory):
        policy = PremaPolicy()
        job = Job(task=task_factory(priority=5, dispatch=0.0))
        assert policy.tokens(job, 2000.0) > policy.tokens(job, 1000.0)

    def test_tokens_scale_with_priority(self, task_factory):
        policy = PremaPolicy()
        low = Job(task=task_factory(task_id="l", priority=0))
        high = Job(task=task_factory(task_id="h", priority=11))
        assert policy.tokens(high, 1e6) > policy.tokens(low, 1e6)

    def test_no_negative_tokens(self, task_factory):
        policy = PremaPolicy()
        job = Job(task=task_factory(dispatch=1e6))
        assert policy.tokens(job, 0.0) == 0.0


class TestScheduling:
    def test_one_job_at_a_time(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(4)]
        policy = PremaPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert len(sim.running) == 1
        assert sim.running[0].tiles == soc.num_tiles

    def test_highest_token_first(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id="low", priority=0, dispatch=0.0),
            task_factory(task_id="high", priority=11, dispatch=0.0),
        ]
        policy = PremaPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim.now = 1000.0
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert sim.running[0].job_id == "high"

    def test_all_finish(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}", network=n, dispatch=i * 1e4)
            for i, n in enumerate(["kws", "alexnet", "squeezenet"])
        ]
        result = run_simulation(soc, tasks, PremaPolicy(), mem=mem)
        assert len(result.results) == 3

    def test_preemption_occurs_for_urgent_arrival(self, soc, mem,
                                                  task_factory):
        # A long low-priority job is overtaken by a high-priority one
        # that waits long enough to exceed the token threshold.
        tasks = [
            task_factory(task_id="long", network="yolov2", priority=0,
                         dispatch=0.0),
            task_factory(task_id="vip", network="kws", priority=11,
                         dispatch=1e5),
        ]
        result = run_simulation(soc, tasks, PremaPolicy(), mem=mem)
        long_result = result.result_for("long")
        vip = result.result_for("vip")
        assert long_result.preemptions >= 1
        assert vip.finished_at < long_result.finished_at

    def test_preemption_charges_overhead(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id="long", network="yolov2", priority=0),
            task_factory(task_id="vip", network="kws", priority=11,
                         dispatch=1e5),
        ]
        result = run_simulation(soc, tasks, PremaPolicy(), mem=mem)
        assert result.result_for("vip").stall_cycles > 0

    def test_serial_execution_no_contention(self, soc, mem, task_factory):
        # Temporal multiplexing: each job runs alone, so its runtime
        # (minus switch stalls) matches the isolated prediction.
        tasks = [
            task_factory(task_id=f"t{i}", network="kws",
                         dispatch=float(i))
            for i in range(2)
        ]
        result = run_simulation(soc, tasks, PremaPolicy(), mem=mem)
        for r in result.results:
            assert r.runtime - r.stall_cycles == pytest.approx(
                r.isolated_cycles, rel=0.01
            )


class TestConstruction:
    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PremaPolicy(preemption_threshold=0.5)

    def test_invalid_overhead(self):
        with pytest.raises(ValueError):
            PremaPolicy(preemption_overhead=-1)
