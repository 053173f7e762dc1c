"""Property pins for the engine loop against the reference oracle.

The engine's horizon loop solves once per allocation epoch and fuses
runs of pure-completion events into one advance+retire sweep (and MoCA
applies its steady-state caps through a fused hook), but it replicates
the reference loop's float sequence operation for operation — so every
simulation it runs must be **bit-identical** (``==`` on floats, no
tolerance) to :func:`repro.sim.reference.run_reference`.  These tests
pin that across:

- random scenarios (workload set, QoS level, load factor, task count
  all drawn from a seeded RNG);
- fault-injected supervised sweeps (transient faults + retries), where
  the retried cells must land bit-identical to the reference;
- the 36-cell reference matrix (nine scenarios x four policies) at
  spot-check size;
- the REPRO_CHECK sanitizer hook: a corrupted engine solve is caught.
"""

import random

import pytest

import repro.experiments.runner as runner
import repro.sanitizer as sanitizer
from repro.core.policy import MoCAPolicy
from repro.experiments.faults import FaultPlan
from repro.experiments.golden import reference_specs, summary_fingerprint
from repro.experiments.parallel import ParallelRunner, Supervision
from repro.experiments.runner import default_policies, run_cell_detail
from repro.models.zoo import workload_set
from repro.scenarios import ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.qos import QosLevel, QosModel
from repro.sim.reference import run_reference
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

QOS_LEVELS = (QosLevel.HARD, QosLevel.MEDIUM, QosLevel.LIGHT)


def _random_tasks(soc, mem, seed):
    """A randomized scenario: workload set, QoS level, slack, load and
    task count all drawn from the seed."""
    rng = random.Random(seed)
    qos = QosModel(soc, slack_factor=rng.uniform(1.5, 3.0))
    gen = WorkloadGenerator(
        soc, workload_set(rng.choice("ABC")), mem, qos
    )
    return gen.generate(
        WorkloadConfig(
            num_tasks=rng.randint(10, 20),
            qos_level=rng.choice(QOS_LEVELS),
            load_factor=rng.uniform(0.4, 1.2),
            seed=seed,
        )
    )


def _run(soc, mem, tasks, reference=False):
    policy = MoCAPolicy()
    policy.reset()
    sim = Simulator(soc, tasks, policy, mem=mem)
    return run_reference(sim) if reference else sim.run()


def _reference_run_simulation(soc, tasks, policy, mem=None, trace=False):
    """Drop-in for :func:`repro.sim.engine.run_simulation` that drives
    the reference loop instead of the engine's."""
    policy.reset()
    return run_reference(
        Simulator(soc, tasks, policy, mem=mem, trace=trace)
    )


class TestKernelBitIdentity:
    """Random scenarios: engine == reference."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_scenarios_identical_across_solvers(
        self, soc, mem, seed
    ):
        tasks = _random_tasks(soc, mem, seed)
        engine = _run(soc, mem, tasks)
        reference = _run(soc, mem, tasks, reference=True)
        assert engine.makespan == reference.makespan
        assert tuple(engine.results) == tuple(reference.results)
        assert engine.decisions == reference.decisions

    def test_kernel_fuses_events(self, soc, mem):
        """The engine must actually reuse the epoch solve across the
        fused sweeps — otherwise it is just a slower single-step loop
        wearing the default's name."""
        tasks = _random_tasks(soc, mem, seed=0)
        result = _run(soc, mem, tasks)
        assert result.block_time_reuses > 0
        assert result.block_time_recomputes < result.events


class TestKernelUnderSupervision:
    """Fault-injected supervised sweeps land bit-identical to the
    reference loop running the same (possibly retried) cells."""

    SPEC = ScenarioSpec(
        workload_set="A", qos_level=QosLevel.MEDIUM, num_tasks=8,
        seeds=(1, 2),
    )
    PLAN = FaultPlan.parse("transient:cells=0,5")

    def _supervised(self):
        return ParallelRunner(workers=1).run_supervised(
            [self.SPEC],
            supervision=Supervision(
                fault_plan=self.PLAN, backoff_base=0.0
            ),
        )

    def test_fault_injected_sweep_identical_across_solvers(
        self, monkeypatch
    ):
        engine = self._supervised()
        monkeypatch.setattr(
            runner, "run_simulation", _reference_run_simulation
        )
        reference = self._supervised()
        for acc in (engine, reference):
            assert acc.complete and not acc.degraded
        assert engine.matrix() == reference.matrix()


class TestReferenceMatrixSpotCheck:
    """The 36 reference cells (nine scenarios x four policies) at
    spot-check size: engine and reference fingerprints identical."""

    def test_all_36_cells_identical(self, monkeypatch):
        specs = reference_specs(num_tasks=10, seeds=(1,))
        policies = default_policies()
        assert len(specs) * len(policies) == 36
        engine = {}
        for spec in specs:
            for name, factory in policies.items():
                summary, _ = run_cell_detail(spec, name, factory, seed=1)
                engine[spec.label, name] = summary_fingerprint(summary)
        monkeypatch.setattr(
            runner, "run_simulation", _reference_run_simulation
        )
        for spec in specs:
            for name, factory in policies.items():
                summary, _ = run_cell_detail(spec, name, factory, seed=1)
                assert summary_fingerprint(summary) == engine[
                    spec.label, name
                ], f"cell ({spec.label}, {name}) diverged"


class TestKernelSanitizer:
    """REPRO_CHECK=1 spot-checks the engine's epoch solve against the
    reference solve; a corrupted engine solve must be caught."""

    def test_injected_kernel_divergence_caught(
        self, soc, mem, task_factory, monkeypatch
    ):
        monkeypatch.setattr(sanitizer, "enabled", True)
        solve = Simulator._solve_epoch

        def corrupted(self, now, best):
            act, stl, best = solve(self, now, best)
            for job in act:
                job.solve_time *= 2.0
            return act, stl, best

        monkeypatch.setattr(Simulator, "_solve_epoch", corrupted)
        tasks = [task_factory(task_id=f"t{i}") for i in range(3)]
        sim = Simulator(soc, tasks, MoCAPolicy(), mem=mem)
        with pytest.raises(
            sanitizer.SanitizerError, match="block-time divergence"
        ):
            sim.run()

    def test_check_kernel_agreement_reports_job_detail(self):
        with pytest.raises(
            sanitizer.SanitizerError, match="job 'a'"
        ):
            sanitizer.check_block_times(
                {"a": 1.0}, {"a": 2.0}, now=3.0
            )
        with pytest.raises(
            sanitizer.SanitizerError, match="extra jobs \\['x'\\]"
        ):
            sanitizer.check_block_times(
                {"x": 1.0}, {}, now=3.0
            )
        # Agreement is silent.
        sanitizer.check_block_times(
            {"a": 1.0}, {"a": 1.0}, now=3.0
        )

    def test_sanitized_kernel_run_identical_to_unchecked(
        self, soc, mem, monkeypatch
    ):
        """The spot-check is a pure observer: a sanitized run returns
        the same floats as an unchecked one."""
        tasks = _random_tasks(soc, mem, seed=2)
        monkeypatch.setattr(sanitizer, "enabled", False)
        plain = _run(soc, mem, tasks)
        monkeypatch.setattr(sanitizer, "enabled", True)
        checked = _run(soc, mem, tasks)
        assert checked.makespan == plain.makespan
        assert tuple(checked.results) == tuple(plain.results)
