"""Property-based invariants over randomly sampled ScenarioSpecs.

A deterministic sampler draws scenarios across the whole knob space
(arrival processes, model mixes, priority overrides, QoS levels) and
checks the invariants the experiment harness relies on:

- the generator emits exactly ``num_tasks`` tasks with non-decreasing,
  non-negative arrival times, reproducibly per seed;
- every generated task is admitted and finished exactly once, and task
  counts are conserved in ``SimResult``;
- serial and 2-worker parallel execution of registry scenarios are
  bit-identical.
"""

import random
from dataclasses import replace

import pytest

from repro.config import DEFAULT_SOC
from repro.core.policy import MoCAPolicy
from repro.experiments.parallel import ParallelRunner, matrices_identical
from repro.memory.hierarchy import MemoryHierarchy
from repro.scenarios import ScenarioSpec, get_scenario, sample_model_mix
from repro.sim.engine import run_simulation
from repro.sim.qos import QosLevel, QosModel
from repro.sim.workload import WorkloadGenerator


def random_spec(case: int) -> ScenarioSpec:
    """Deterministically sample one ScenarioSpec from the knob space."""
    rng = random.Random(20230 + case)
    arrival = rng.choice(["uniform", "bursty", "diurnal"])
    kwargs = dict(
        workload_set=rng.choice("ABC"),
        qos_level=rng.choice(list(QosLevel)),
        num_tasks=rng.randrange(8, 20),
        seeds=(rng.randrange(1, 100),),
        load_factor=rng.uniform(0.4, 1.2),
        slack_factor=rng.uniform(1.5, 3.0),
        arrival=arrival,
    )
    if arrival == "bursty":
        kwargs.update(
            burst_count=rng.randrange(1, 6),
            burst_spread=rng.uniform(0.01, 0.1),
        )
    elif arrival == "diurnal":
        kwargs.update(
            diurnal_waves=rng.uniform(0.5, 4.0),
            diurnal_depth=rng.uniform(0.0, 1.0),
        )
    if rng.random() < 0.5:
        kwargs["model_mix"] = sample_model_mix(
            rng.randrange(1000), set_name=kwargs["workload_set"], size=2
        )
    if rng.random() < 0.3:
        kwargs["priority_weights"] = tuple(
            rng.uniform(0.1, 5.0) for _ in range(12)
        )
    return ScenarioSpec(**kwargs)


def generate_tasks(spec: ScenarioSpec, seed: int):
    mem = MemoryHierarchy.from_soc(DEFAULT_SOC)
    qos = QosModel(DEFAULT_SOC, slack_factor=spec.slack_factor)
    gen = WorkloadGenerator(DEFAULT_SOC, spec.networks(), mem, qos)
    return gen.generate(spec.workload_config(seed)), mem


class TestGeneratorInvariants:
    @pytest.mark.parametrize("case", range(12))
    def test_counts_order_and_reproducibility(self, case):
        spec = random_spec(case)
        seed = spec.seeds[0]
        tasks, _ = generate_tasks(spec, seed)
        again, _ = generate_tasks(spec, seed)

        assert len(tasks) == spec.num_tasks
        dispatches = [t.dispatch_cycle for t in tasks]
        assert all(d >= 0 for d in dispatches)
        assert dispatches == sorted(dispatches)
        assert [
            (t.task_id, t.network_name, t.priority, t.dispatch_cycle)
            for t in tasks
        ] == [
            (t.task_id, t.network_name, t.priority, t.dispatch_cycle)
            for t in again
        ]
        assert len({t.task_id for t in tasks}) == spec.num_tasks
        assert all(0 <= t.priority <= 11 for t in tasks)


class TestSimulationConservation:
    @pytest.mark.parametrize("case", range(6))
    def test_every_task_admitted_exactly_once(self, case):
        spec = random_spec(case)
        tasks, mem = generate_tasks(spec, spec.seeds[0])
        result = run_simulation(DEFAULT_SOC, tasks, MoCAPolicy(), mem=mem)

        finished = [r.task_id for r in result.results]
        assert sorted(finished) == sorted(t.task_id for t in tasks)
        assert len(finished) == len(set(finished)) == spec.num_tasks
        for r in result.results:
            assert r.finished_at >= r.started_at >= 0
            assert r.started_at >= r.dispatch_cycle


class TestSerialParallelIdentity:
    def test_registry_scenarios_bit_identical_across_workers(
        self, serial_reference
    ):
        specs = [
            replace(get_scenario(name), num_tasks=10, seeds=(1,))
            for name in ("bursty-mixed", "diurnal-light")
        ]
        serial = serial_reference(specs)
        runner = ParallelRunner(workers=2)
        parallel = runner.run_supervised(specs).matrix()
        assert matrices_identical(serial, parallel)
        if runner.last_mode != "parallel":
            pytest.skip(
                "process pool unavailable: cross-process identity "
                "not exercised (serial fallback compared)"
            )


@pytest.mark.slow
def test_sweep_cli_two_workers_matches_serial(capsys):
    """Acceptance check: the sweep CLI's parallel output is identical
    to its serial output for registry scenarios."""
    from repro.cli import main

    argv = [
        "sweep", "--scenarios", "bursty-mixed,diurnal-light",
        "--tasks", "24", "--seeds", "1,2",
    ]
    main(argv + ["--workers", "1"])
    serial_out = capsys.readouterr().out
    main(argv + ["--workers", "2"])
    parallel_out = capsys.readouterr().out
    assert serial_out == parallel_out
