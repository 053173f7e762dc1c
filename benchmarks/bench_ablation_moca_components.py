"""Ablation: which MoCA component buys what (DESIGN.md design choices).

Disables MoCA's pieces one at a time on a contention-heavy scenario:

- no-regulation: scheduler only (Algorithm 3), no bandwidth caps;
- fcfs-admission: regulation only (Algorithm 2), FCFS admission;
- full MoCA.

Paper narrative to hold: both components contribute; the full system
is at least as good as either ablation and better than the static
baseline.
"""

import pytest

from repro.baselines.static_partition import StaticPartitionPolicy
from repro.config import DEFAULT_SOC
from repro.core.policy import MoCAPolicy
from repro.memory.hierarchy import MemoryHierarchy
from repro.metrics import summarize
from repro.models.zoo import workload_set
from repro.sim.engine import run_simulation
from repro.sim.qos import QosLevel, QosModel
from repro.sim.workload import WorkloadConfig, WorkloadGenerator


class _NoRegulationMoCA(MoCAPolicy):
    """Algorithm 3 only: the regulation stage sets no bandwidth caps."""

    name = "moca-no-regulation"

    def _plan_regulation(self, sim, planned_running, admitted_tiles):
        return ()


class _FcfsMoCA(MoCAPolicy):
    """Algorithm 2 only: admit base-slot jobs in ready order while
    tiles remain."""

    name = "moca-fcfs-admission"

    def _plan_admissions(self, sim):
        base = self._scheduler.config.tiles_per_task
        free = sim.free_tiles
        admissions = []
        for job in sim.ready:
            if free < base:
                break
            admissions.append((job.job_id, base))
            free -= base
        return admissions


def _run(policy_factory, seeds=(1, 2)):
    soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    gen = WorkloadGenerator(soc, workload_set("C"), mem,
                            QosModel(soc, slack_factor=2.0))
    rates = []
    for seed in seeds:
        tasks = gen.generate(WorkloadConfig(
            num_tasks=80, qos_level=QosLevel.HARD, load_factor=0.7,
            seed=seed,
        ))
        result = run_simulation(soc, tasks, policy_factory(), mem=mem)
        rates.append(summarize(result.policy_name, result.results).sla_rate)
    return sum(rates) / len(rates)


def test_moca_component_ablation(benchmark):
    full = benchmark.pedantic(_run, args=(MoCAPolicy,), rounds=1,
                              iterations=1)
    no_reg = _run(_NoRegulationMoCA)
    fcfs = _run(_FcfsMoCA)
    static = _run(StaticPartitionPolicy)

    print()
    print("MoCA component ablation (Workload-C, QoS-H, SLA rate):")
    print(f"  static baseline:        {static:.3f}")
    print(f"  scheduler only (Alg 3): {no_reg:.3f}")
    print(f"  regulation only (Alg 2):{fcfs:.3f}")
    print(f"  full MoCA:              {full:.3f}")

    # Shape: the full system beats the static baseline.
    assert full > static
    # Shape: the full system is not worse than either single component
    # by a meaningful margin.
    assert full >= no_reg - 0.05
    assert full >= fcfs - 0.05
