"""Tests for the scenario registry and the stochastic workload knobs
(repro.scenarios + the WorkloadGenerator arrival processes)."""

import pickle

import pytest

from repro.config import DEFAULT_SOC
from repro.experiments.runner import run_matrix, run_scenario, standard_matrix
from repro.models.zoo import WORKLOAD_SETS, workload_set
from repro.scenarios import (
    REFERENCE_SCENARIOS,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    resolve_scenario,
    resolve_scenarios,
    sample_model_mix,
    scenario_names,
    temporary_scenario,
    unregister_scenario,
)
from repro.sim.qos import QosLevel
from repro.sim.tracefile import dump_tasks
from repro.sim.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def generator():
    return WorkloadGenerator(DEFAULT_SOC, workload_set("C"))


class TestRegistry:
    def test_reference_entries_present(self):
        assert len(REFERENCE_SCENARIOS) == 9
        for name in REFERENCE_SCENARIOS:
            assert name in scenario_names()

    def test_builtin_stochastic_entries_present(self):
        for name in ("bursty-mixed", "bursty-rush", "diurnal-light",
                     "diurnal-prod", "skewed-mix", "random-mix"):
            spec = get_scenario(name)
            assert spec.name == name
            assert spec.label == name

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="bursty-mixed"):
            get_scenario("no-such-scenario")

    def test_register_rejects_collision_and_bad_names(self):
        spec = ScenarioSpec(num_tasks=10, seeds=(1,))
        with temporary_scenario("tmp-collision", spec):
            with pytest.raises(ValueError, match="already registered"):
                register_scenario("tmp-collision", spec)
            register_scenario("tmp-collision", spec, overwrite=True)
        assert "tmp-collision" not in scenario_names()
        with pytest.raises(ValueError, match="kebab-case"):
            register_scenario("Bad Name!", spec)

    def test_unregister_removes_entry(self):
        spec = ScenarioSpec(num_tasks=10, seeds=(1,))
        register_scenario("tmp-unregister", spec)
        assert "tmp-unregister" in scenario_names()
        unregister_scenario("tmp-unregister")
        assert "tmp-unregister" not in scenario_names()
        unregister_scenario("tmp-unregister")  # idempotent

    def test_temporary_scenario_scopes_the_leak(self):
        """ISSUE satellite: ad-hoc registrations must not leak into
        later tests — the context manager removes the entry even when
        the body raises."""
        spec = ScenarioSpec(num_tasks=10, seeds=(1,))
        before = scenario_names()
        with temporary_scenario("tmp-scoped", spec) as named:
            assert named.name == "tmp-scoped"
            assert get_scenario("tmp-scoped") == named
        assert scenario_names() == before
        with pytest.raises(RuntimeError, match="boom"):
            with temporary_scenario("tmp-scoped", spec):
                raise RuntimeError("boom")
        assert scenario_names() == before

    def test_temporary_scenario_restores_overwritten_entry(self):
        spec = ScenarioSpec(num_tasks=10, seeds=(1,))
        other = ScenarioSpec(num_tasks=20, seeds=(2,))
        with temporary_scenario("tmp-nest", spec):
            original = get_scenario("tmp-nest")
            with pytest.raises(ValueError, match="already registered"):
                with temporary_scenario("tmp-nest", other):
                    pass  # pragma: no cover
            with temporary_scenario("tmp-nest", other, overwrite=True):
                assert get_scenario("tmp-nest").num_tasks == 20
            assert get_scenario("tmp-nest") == original
        assert "tmp-nest" not in scenario_names()

    def test_resolve_mixed_names_and_specs(self):
        spec = ScenarioSpec(num_tasks=10, seeds=(1,))
        resolved = resolve_scenarios(["bursty-mixed", spec])
        assert resolved[0] is get_scenario("bursty-mixed")
        assert resolved[1] is spec
        with pytest.raises(TypeError):
            resolve_scenario(42)

    def test_resolve_accepts_bare_name_and_spec(self):
        assert resolve_scenarios("bursty-mixed") == [
            get_scenario("bursty-mixed")
        ]
        spec = ScenarioSpec(num_tasks=10, seeds=(1,))
        assert resolve_scenarios(spec) == [spec]

    def test_standard_matrix_comes_from_registry_unlabelled(self):
        specs = standard_matrix(num_tasks=30, seeds=(1,))
        assert len(specs) == 9
        assert [s.label for s in specs] == [
            f"Workload-{w}/{q.value}"
            for w in ("A", "B", "C")
            for q in (QosLevel.HARD, QosLevel.MEDIUM, QosLevel.LIGHT)
        ]
        for spec, name in zip(specs, REFERENCE_SCENARIOS):
            ref = get_scenario(name)
            assert (spec.workload_set, spec.qos_level) == (
                ref.workload_set, ref.qos_level
            )
            assert spec.name is None

    def test_spec_defaults_mirror_workload_config(self):
        """The stochastic knobs exist on both ScenarioSpec and
        WorkloadConfig; their defaults must stay identical (the spec
        passes every field explicitly, so a divergence would silently
        change registry scenarios)."""
        import dataclasses

        from repro.sim.workload import WorkloadConfig

        spec_defaults = {
            f.name: f.default for f in dataclasses.fields(ScenarioSpec)
        }
        for f in dataclasses.fields(WorkloadConfig):
            if f.name in ("reference_tiles", "seed"):
                continue  # not spec knobs (seed comes from spec.seeds)
            if f.name in ("num_tasks", "load_factor"):
                continue  # spec intentionally uses the paper's matrix values
            assert spec_defaults[f.name] == f.default, f.name

    def test_spec_fails_fast_on_unknown_mix_models_and_bad_traces(self):
        import json

        from repro.sim.tracefile import FORMAT_VERSION

        with pytest.raises(ValueError, match="resnet5"):
            ScenarioSpec(model_mix=(("resnet5", 1.0),))
        with pytest.raises(ValueError, match="scenario"):
            ScenarioSpec(arrival="trace", trace_text="{not json")
        empty = json.dumps({"version": FORMAT_VERSION, "tasks": []})
        with pytest.raises(ValueError, match="no dispatch cycles"):
            ScenarioSpec(arrival="trace", trace_text=empty)

    def test_duplicate_labels_rejected(self):
        spec = ScenarioSpec(workload_set="A", num_tasks=8, seeds=(1,))
        with pytest.raises(ValueError, match="duplicate scenario label"):
            run_matrix([spec, spec])
        with pytest.raises(ValueError, match="duplicate scenario label"):
            run_matrix(["skewed-mix", "skewed-mix"], workers=2)

    def test_builtin_specs_are_picklable(self):
        """Cells built from registry specs must survive the process
        boundary of the parallel executor."""
        for name in scenario_names():
            spec = get_scenario(name)
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestSampleModelMix:
    def test_deterministic_and_normalized(self):
        a = sample_model_mix(7, set_name="C", size=3)
        b = sample_model_mix(7, set_name="C", size=3)
        assert a == b
        assert abs(sum(w for _, w in a) - 1.0) < 1e-9
        names = [n for n, _ in a]
        assert len(set(names)) == 3
        assert set(names) <= set(WORKLOAD_SETS["C"])

    def test_different_seeds_differ(self):
        assert sample_model_mix(1) != sample_model_mix(2)

    def test_bad_inputs(self):
        with pytest.raises(KeyError):
            sample_model_mix(1, set_name="Z")
        with pytest.raises(ValueError):
            sample_model_mix(1, set_name="A", size=99)


class TestArrivalProcesses:
    @pytest.mark.parametrize("name", ["bursty-mixed", "diurnal-light"])
    def test_stochastic_arrivals_valid_and_reproducible(
        self, generator, name
    ):
        from dataclasses import replace

        spec = get_scenario(name)
        cfg = replace(spec.workload_config(seed=5), num_tasks=40)
        gen = WorkloadGenerator(DEFAULT_SOC, spec.networks())
        a = gen.generate(cfg)
        b = gen.generate(cfg)
        assert [(t.task_id, t.dispatch_cycle) for t in a] == [
            (t.task_id, t.dispatch_cycle) for t in b
        ]
        dispatches = [t.dispatch_cycle for t in a]
        assert dispatches == sorted(dispatches)
        assert all(d >= 0 for d in dispatches)
        assert len(a) == 40

    def test_bursty_clusters_more_than_uniform(self, generator):
        """Bursty arrivals concentrate: most inter-arrival gaps are
        tiny relative to the mean (median/mean collapses), while
        uniform arrivals keep the two comparable."""
        def gap_skew(arrival, **kw):
            cfg = ScenarioSpec(
                workload_set="C", num_tasks=120, seeds=(3,),
                arrival=arrival, **kw,
            ).workload_config(seed=3)
            d = [t.dispatch_cycle for t in generator.generate(cfg)]
            gaps = sorted(b - a for a, b in zip(d, d[1:]))
            mean = sum(gaps) / len(gaps)
            median = gaps[len(gaps) // 2]
            return median / mean

        uniform = gap_skew("uniform")
        bursty = gap_skew("bursty", burst_count=3, burst_spread=0.01)
        assert bursty < 0.5 * uniform

    def test_diurnal_depth_zero_matches_rate_shape(self, generator):
        cfg = ScenarioSpec(
            workload_set="A", num_tasks=30, seeds=(2,),
            arrival="diurnal", diurnal_depth=0.0,
        ).workload_config(seed=2)
        tasks = generator.generate(cfg)
        assert len(tasks) == 30

    def test_trace_replay_reuses_dispatch_cycles(self, generator):
        base = generator.generate(
            ScenarioSpec(
                workload_set="C", num_tasks=20, seeds=(4,)
            ).workload_config(seed=4)
        )
        trace = dump_tasks(base)
        cfg = ScenarioSpec(
            workload_set="C", num_tasks=20, seeds=(9,),
            arrival="trace", trace_text=trace,
        ).workload_config(seed=9)
        replayed = generator.generate(cfg)
        assert sorted(t.dispatch_cycle for t in replayed) == sorted(
            t.dispatch_cycle for t in base
        )

    def test_trace_replay_cycles_past_trace_end(self, generator):
        base = generator.generate(
            ScenarioSpec(
                workload_set="C", num_tasks=5, seeds=(4,)
            ).workload_config(seed=4)
        )
        trace = dump_tasks(base)
        cfg = ScenarioSpec(
            workload_set="C", num_tasks=12, seeds=(9,),
            arrival="trace", trace_text=trace,
        ).workload_config(seed=9)
        replayed = generator.generate(cfg)
        assert len(replayed) == 12
        assert max(t.dispatch_cycle for t in replayed) > max(
            t.dispatch_cycle for t in base
        )

    def test_trace_replay_lap_offset_uses_span_not_absolute_end(
        self, generator
    ):
        """A trace whose cycles start far from 0 (a tail slice of a
        longer capture) must not insert its start offset as idle time
        between laps."""
        import json

        from repro.sim.tracefile import FORMAT_VERSION

        start = 1_000_000.0
        cycles = [start, start + 100.0, start + 500.0]
        trace = json.dumps({
            "version": FORMAT_VERSION,
            "tasks": [
                {"task_id": f"t{i}", "network": "kws",
                 "dispatch_cycle": c, "priority": 5,
                 "qos_target_cycles": 1.0}
                for i, c in enumerate(cycles)
            ],
        })
        cfg = ScenarioSpec(
            workload_set="C", num_tasks=6, seeds=(1,),
            arrival="trace", trace_text=trace,
        ).workload_config(seed=1)
        tasks = generator.generate(cfg)
        dispatches = sorted(t.dispatch_cycle for t in tasks)
        span = 500.0 + 500.0 / 2  # extent + mean inter-arrival gap
        assert dispatches[:3] == cycles
        assert dispatches[3:] == [c + span for c in cycles]

    def test_explicit_arrival_window_bounds_uniform(self, generator):
        cfg = ScenarioSpec(
            workload_set="A", num_tasks=25, seeds=(1,),
            arrival_window=1000.0,
        ).workload_config(seed=1)
        tasks = generator.generate(cfg)
        assert all(0 <= t.dispatch_cycle <= 1000.0 for t in tasks)


class TestModelMixAndPriorities:
    def test_mix_restricts_pool(self, generator):
        cfg = ScenarioSpec(
            workload_set="C", num_tasks=60, seeds=(1,),
            model_mix=(("kws", 0.7), ("alexnet", 0.3)),
        ).workload_config(seed=1)
        tasks = generator.generate(cfg)
        assert {t.network_name for t in tasks} <= {"kws", "alexnet"}

    def test_mix_weights_shift_frequencies(self, generator):
        cfg = ScenarioSpec(
            workload_set="C", num_tasks=300, seeds=(1,),
            model_mix=(("kws", 0.9), ("alexnet", 0.1)),
        ).workload_config(seed=1)
        tasks = generator.generate(cfg)
        kws = sum(1 for t in tasks if t.network_name == "kws")
        assert kws > 0.7 * len(tasks)

    def test_mix_name_not_in_generator_pool_raises(self):
        gen = WorkloadGenerator(DEFAULT_SOC, workload_set("A"))
        cfg = ScenarioSpec(
            workload_set="A", num_tasks=10, seeds=(1,),
            model_mix=(("resnet50", 1.0),),
        ).workload_config(seed=1)
        with pytest.raises(ValueError, match="resnet50"):
            gen.generate(cfg)

    def test_priority_weights_override(self, generator):
        high_only = (0.0,) * 9 + (1.0, 1.0, 1.0)
        cfg = ScenarioSpec(
            workload_set="C", num_tasks=50, seeds=(1,),
            priority_weights=high_only,
        ).workload_config(seed=1)
        tasks = generator.generate(cfg)
        assert all(t.priority >= 9 for t in tasks)


class TestRegistryExecution:
    def test_run_scenario_accepts_name(self):
        from dataclasses import replace

        spec = replace(
            get_scenario("skewed-mix"), num_tasks=8, seeds=(1,)
        )
        with temporary_scenario("tmp-tiny", spec):
            by_name = run_scenario("tmp-tiny")
            by_spec = run_scenario(get_scenario("tmp-tiny"))
            assert set(by_name) == {"prema", "static", "planaria", "moca"}
            for policy in by_name:
                assert (
                    by_name[policy].per_seed == by_spec[policy].per_seed
                )
        assert "tmp-tiny" not in scenario_names()

    def test_run_matrix_mixes_names_and_specs(self):
        from dataclasses import replace

        spec = replace(
            get_scenario("bursty-mixed"), num_tasks=8, seeds=(1,)
        )
        anon = ScenarioSpec(workload_set="A", num_tasks=8, seeds=(1,))
        matrix = run_matrix(
            [replace(spec, name="tmp-bursty"), anon]
        )
        assert set(matrix) == {"tmp-bursty", "Workload-A/QoS-M"}
