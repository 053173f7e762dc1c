"""Tests for the full MoCA policy (scheduler + runtime on the engine)."""

import pytest

from repro.core.policy import MoCAPolicy
from repro.core.scheduler import SchedulerConfig
from repro.sim.engine import Simulator, run_simulation
from repro.sim.trace import TraceEvent


def _sim(soc, mem, tasks, policy=None, trace=False):
    policy = policy if policy is not None else MoCAPolicy()
    policy.reset()
    return Simulator(soc, tasks, policy, mem=mem, trace=trace), policy


class TestAdmission:
    def test_admits_onto_slots(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(6)]
        sim, policy = _sim(soc, mem, tasks)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert len(sim.running) == 4

    def test_priority_order(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}", priority=i)
            for i in range(6)
        ]
        sim, policy = _sim(soc, mem, tasks)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        running = {j.job_id for j in sim.running}
        # Top-4 priorities admitted (5, 4, 3, 2).
        assert running == {"t5", "t4", "t3", "t2"}

    def test_admission_grows_when_queue_drained(self, soc, mem,
                                                task_factory):
        tasks = [task_factory(task_id="only")]
        sim, policy = _sim(soc, mem, tasks)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        job = sim.running[0]
        # No backlog: the single admitted job gets an enlarged slot.
        assert job.tiles > SchedulerConfig().tiles_per_task

    def test_base_slots_under_backlog(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(8)]
        sim, policy = _sim(soc, mem, tasks)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert all(
            j.tiles == SchedulerConfig().tiles_per_task for j in sim.running
        )


class TestRegulation:
    def test_no_caps_without_contention(self, soc, mem, task_factory):
        # A lone application can never overflow the DRAM: Algorithm 2
        # must leave it unthrottled for its entire run.
        tasks = [task_factory(task_id="solo", network="alexnet")]
        result = run_simulation(soc, tasks, MoCAPolicy(), mem=mem)
        assert result.results[0].bw_reconfigs == 0

    def test_caps_under_contention(self, soc, mem, task_factory):
        # Four AlexNets oversubscribe the DRAM during their FC blocks.
        tasks = [task_factory(task_id=f"t{i}", network="alexnet")
                 for i in range(4)]
        policy = MoCAPolicy()
        policy.reset()
        result = run_simulation(soc, tasks, policy, mem=mem, trace=True)
        reconfigs = sum(r.bw_reconfigs for r in result.results)
        assert reconfigs > 0

    def test_caps_sum_within_bandwidth(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", network="alexnet")
                 for i in range(4)]
        sim, policy = _sim(soc, mem, tasks)
        sim.dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        caps = [j.bw_cap for j in sim.running if j.bw_cap is not None]
        if caps:
            assert sum(caps) <= mem.dram_bandwidth * 1.3

    def test_memory_reconfig_cheap(self, soc, mem, task_factory):
        # Each bw reconfig costs ~8 cycles (not a 1 M thread migration).
        tasks = [task_factory(task_id=f"t{i}", network="alexnet")
                 for i in range(4)]
        result = run_simulation(soc, tasks, MoCAPolicy(), mem=mem)
        for r in result.results:
            if r.bw_reconfigs and not r.tile_repartitions:
                assert r.stall_cycles <= r.bw_reconfigs * 8 + 1e-6

    def test_scoreboard_retired_on_finish(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", network="kws")
                 for i in range(2)]
        policy = MoCAPolicy()
        policy.reset()
        run_simulation(soc, tasks, policy, mem=mem)
        assert len(policy._runtime.scoreboard) == 0


class TestComputeRepartition:
    def test_rare_by_default(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}",
                         network=["kws", "squeezenet", "alexnet",
                                  "resnet50"][i % 4],
                         dispatch=i * 5e5)
            for i in range(8)
        ]
        result = run_simulation(soc, tasks, MoCAPolicy(), mem=mem)
        total_reparts = sum(r.tile_repartitions for r in result.results)
        # MoCA triggers compute repartition "much less frequently".
        assert total_reparts <= 2


class TestEndToEnd:
    def test_mixed_workload_finishes(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}",
                         network=["kws", "alexnet", "squeezenet",
                                  "googlenet", "yolo_lite"][i % 5],
                         dispatch=i * 3e5, priority=(i * 5) % 12)
            for i in range(10)
        ]
        result = run_simulation(soc, tasks, MoCAPolicy(), mem=mem)
        assert len(result.results) == 10

    def test_deterministic(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}", network="alexnet",
                         dispatch=i * 1e5)
            for i in range(4)
        ]
        r1 = run_simulation(soc, tasks, MoCAPolicy(), mem=mem)
        r2 = run_simulation(soc, tasks, MoCAPolicy(), mem=mem)
        for a, b in zip(r1.results, r2.results):
            assert a.finished_at == b.finished_at

    def test_high_priority_preferred_under_load(self, soc, mem,
                                                task_factory):
        tasks = []
        for i in range(12):
            tasks.append(task_factory(
                task_id=f"t{i:02d}", network="squeezenet",
                priority=(11 if i % 3 == 0 else 0), dispatch=0.0,
            ))
        result = run_simulation(soc, tasks, MoCAPolicy(), mem=mem)
        high = [r for r in result.results if r.priority == 11]
        low = [r for r in result.results if r.priority == 0]
        mean_high = sum(r.latency for r in high) / len(high)
        mean_low = sum(r.latency for r in low) / len(low)
        assert mean_high < mean_low


class TestIdleAdmission:
    """An idle SoC with nothing left to arrive must not wait on the
    admission threshold: the clock cannot advance, so no waiting
    task's score can ever rise past it."""

    def test_lone_zero_score_task_runs(self, soc, mem, task_factory):
        # Priority 0, zero wait: score 0.0, not above the default
        # threshold of 0.0.
        tasks = [task_factory(task_id="lone", priority=0, dispatch=0.0)]
        result = run_simulation(soc, tasks, MoCAPolicy(), mem=mem)
        assert [r.task_id for r in result.results] == ["lone"]

    def test_threshold_still_holds_while_arrivals_pending(
        self, soc, mem, task_factory
    ):
        tasks = [
            task_factory(task_id="early", priority=0, dispatch=0.0),
            task_factory(task_id="late", priority=0, dispatch=1e6),
        ]
        sim, policy = _sim(soc, mem, tasks)
        sim.dispatch_arrivals()
        assert sim.has_pending_arrivals
        sim.controller.apply(policy.decide(sim))
        assert sim.running == []

    def test_pending_arrivals_property(self, soc, mem, task_factory):
        sim, _ = _sim(soc, mem, [task_factory(task_id="a", dispatch=5.0)])
        assert sim.has_pending_arrivals
        sim.now = 5.0
        sim.dispatch_arrivals()
        assert not sim.has_pending_arrivals

    def test_diurnal_light_seed_8_cell_completes(self):
        # The benchmark cell that used to raise "deadlock ... 1 ready,
        # 0 running".
        from dataclasses import replace

        from repro.experiments.runner import default_policies, run_cell
        from repro.scenarios import get_scenario

        spec = replace(get_scenario("diurnal-light"), num_tasks=16,
                       seeds=(8,))
        summary = run_cell(spec, "moca", default_policies()["moca"], 8)
        assert 0.0 <= summary.sla_rate <= 1.0
