"""Tests for the parallel experiment executor and the engine's
incremental (epoch-cached) hot path — the two must be invisible:
numerically identical outputs to the serial / always-recompute paths.
"""

import pytest

from repro.baselines import PremaPolicy
from repro.config import DEFAULT_SOC
from repro.core.policy import MoCAPolicy
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import (
    POLICY_ORDER,
    ScenarioSpec,
    default_policies,
    run_matrix,
    run_scenario,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import workload_set
from repro.sim.engine import Simulator
from repro.sim.policy import Policy
from repro.sim.qos import QosLevel
from repro.sim.reference import solve_block_times
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

SPEC = ScenarioSpec(
    workload_set="A", qos_level=QosLevel.MEDIUM, num_tasks=16, seeds=(1, 2)
)


@pytest.fixture(scope="module")
def serial_cell(serial_reference):
    return serial_reference([SPEC])[SPEC.label]


class RaisingPolicy(Policy):
    """A policy whose every decision raises (top-level, so it pickles
    into pool workers)."""

    name = "raising"

    def decide(self, sim):
        raise ValueError("decide exploded")


class TestParallelDeterminism:
    def test_two_workers_identical_to_serial(self, serial_cell):
        """ISSUE satellite: ParallelRunner(workers=2) must produce
        numerically identical MetricsSummary values for all four
        policies."""
        runner = ParallelRunner(workers=2)
        parallel_cell = runner.run_supervised([SPEC]).matrix()[SPEC.label]
        assert set(parallel_cell) == set(POLICY_ORDER)
        for policy in POLICY_ORDER:
            assert (
                parallel_cell[policy].per_seed
                == serial_cell[policy].per_seed
            ), policy
        if runner.last_mode != "parallel":
            pytest.skip(
                "process pool unavailable: cross-process identity "
                "not exercised (serial fallback compared)"
            )

    def test_run_matrix_workers_wiring(self, serial_cell):
        matrix = run_matrix([SPEC], workers=2)
        assert set(matrix) == {SPEC.label}
        for policy in POLICY_ORDER:
            assert (
                matrix[SPEC.label][policy].per_seed
                == serial_cell[policy].per_seed
            )

    def test_serial_fallback_workers_1(self, serial_cell):
        runner = ParallelRunner(workers=1)
        cell = runner.run_supervised([SPEC]).matrix()[SPEC.label]
        assert runner.last_mode == "serial"
        for policy in POLICY_ORDER:
            assert cell[policy].per_seed == serial_cell[policy].per_seed

    def test_non_picklable_policy_falls_back_to_serial(self, serial_cell):
        runner = ParallelRunner(workers=2)
        policies = {"moca": lambda: MoCAPolicy()}  # lambdas don't pickle
        cell = runner.run_supervised(
            [SPEC], policies=policies
        ).matrix()[SPEC.label]
        assert runner.last_mode == "serial"
        assert cell["moca"].per_seed == serial_cell["moca"].per_seed

    def test_per_cell_timings_recorded(self):
        runner = ParallelRunner(workers=2)
        cells = runner.run_supervised([SPEC]).cells()
        assert len(cells) == len(default_policies()) * len(SPEC.seeds)
        for cell in cells:
            assert cell.label == SPEC.label
            assert cell.seconds >= 0

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)
        with pytest.raises(ValueError):
            run_scenario(SPEC, workers=-1)
        with pytest.raises(ValueError):
            run_matrix([SPEC], workers=-2)


class TestLibraryFailFast:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_raises_naming_the_cell(self, workers):
        """The library entry points run without retries and raise on
        the first failed cell, naming it, for every worker count."""
        policies = {"prema": PremaPolicy, "raising": RaisingPolicy}
        with pytest.raises(RuntimeError) as info:
            run_matrix([SPEC], policies=policies, workers=workers)
        message = str(info.value)
        assert f"cell {SPEC.label}/raising/seed " in message
        assert "[error]" in message
        assert "ValueError: decide exploded" in message
        # The original exception stays attached as the cause.
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "decide exploded"


def _tasks(num_tasks=12, seed=3):
    soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    gen = WorkloadGenerator(soc, workload_set("A"), mem)
    return soc, mem, gen.generate(
        WorkloadConfig(
            num_tasks=num_tasks, qos_level=QosLevel.MEDIUM, seed=seed
        )
    )


def _force_recompute(sim):
    """Solve from scratch with the reference solve, which calls
    ``BlockCost.predict`` directly."""
    return solve_block_times(sim)


def _epoch_solve(sim):
    """The engine's own epoch solve on the simulator's current state."""
    active, _, _ = sim._solve_epoch(sim.now, float("inf"))
    return {job.job_id: job.solve_time for job in active}


class _CheckedSimulator(Simulator):
    """Cross-checks every epoch solve of a run against a from-scratch
    one."""

    checks = 0

    def _solve_epoch(self, now, best):
        out = super()._solve_epoch(now, best)
        solved = {job.job_id: job.solve_time for job in out[0]}
        forced = _force_recompute(self)
        assert solved == forced, (
            f"epoch solve diverged at t={now}: {solved} != {forced}"
        )
        type(self).checks += 1
        return out


class TestEpochCachedBlockTimes:
    def test_cache_matches_recompute_under_churn(self):
        """The engine's epoch solve must match a from-scratch
        recompute after tile / bandwidth / stall / preemption churn."""
        soc, mem, tasks = _tasks()
        policy = PremaPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim.now = max(t.dispatch_cycle for t in tasks)
        sim.dispatch_arrivals()
        jobs = list(sim.ready)
        sim.start_job(jobs[0], 2)
        sim.start_job(jobs[1], 2)
        assert _epoch_solve(sim) == _force_recompute(sim)
        sim.set_tiles(jobs[0], 4)
        assert _epoch_solve(sim) == _force_recompute(sim)
        sim.controller.apply_caps(((jobs[1].job_id, 2.0),))
        assert _epoch_solve(sim) == _force_recompute(sim)
        # The cap's reconfiguration stall expires; the capped job
        # rejoins the arbiter's active set.
        sim.now = jobs[1].stall_until
        assert jobs[1].job_id in _epoch_solve(sim)
        assert _epoch_solve(sim) == _force_recompute(sim)
        # A stalled job drops out of the arbiter's active set, and
        # rejoins once the clock passes its stall.
        sim.stall_job(jobs[0], 1000.0)
        assert _epoch_solve(sim) == _force_recompute(sim)
        assert jobs[0].job_id not in _epoch_solve(sim)
        sim.now += 1001.0
        assert _epoch_solve(sim) == _force_recompute(sim)
        sim.preempt(jobs[0])
        assert _epoch_solve(sim) == _force_recompute(sim)

    def test_full_run_cross_checked(self):
        """Every epoch solve of a whole MoCA simulation agrees with a
        from-scratch recompute (stall expiries, block retirements,
        repartitions, the lot)."""
        soc, mem, tasks = _tasks(num_tasks=10, seed=5)
        policy = MoCAPolicy()
        policy.reset()
        _CheckedSimulator.checks = 0
        result = _CheckedSimulator(soc, tasks, policy, mem=mem).run()
        assert len(result.results) == 10
        assert _CheckedSimulator.checks > 0

    def test_reuse_counters_exposed(self):
        soc, mem, tasks = _tasks(num_tasks=10, seed=5)
        policy = MoCAPolicy()
        policy.reset()
        result = Simulator(soc, tasks, policy, mem=mem).run()
        assert result.events > 0
        assert result.block_time_recomputes > 0
        assert (
            result.block_time_recomputes + result.block_time_reuses
            >= result.events
        )
