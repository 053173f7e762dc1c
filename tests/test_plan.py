"""Tests for repro.sim.plan: AllocationPlan, AllocationController
and the engine's one decision schedule — the declarative
policy↔engine seam."""

import pytest

from repro.experiments.results import DECISION_COUNTER_FIELDS
from repro.experiments.runner import (
    default_policies,
    run_cell_detail,
    standard_matrix,
)
from repro.sim.engine import SimulationError, Simulator, run_simulation
from repro.sim.job import JobPhase
from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import (
    COMPUTE_RECONFIG_CYCLES,
    MEMORY_RECONFIG_CYCLES,
    Policy,
)


class _IdlePolicy(Policy):
    """Plan-emitting policy that never wants anything (tests drive
    the controller directly)."""

    name = "idle"

    def decide(self, sim):
        return EMPTY_PLAN


class _PlannedPairs(Policy):
    """Declarative twin of the engine tests' greedy 2-tile policy."""

    name = "planned-pairs"

    def decide(self, sim):
        free = sim.free_tiles
        admissions = []
        for job in sim.ready:
            if free < 2:
                break
            admissions.append((job.job_id, 2))
            free -= 2
        return AllocationPlan(admissions=tuple(admissions))


def _sim(soc, mem, task_factory, n=2, policy=None, **kwargs):
    tasks = [task_factory(task_id=f"t{i}") for i in range(n)]
    policy = policy if policy is not None else _IdlePolicy()
    policy.reset()
    return Simulator(soc, tasks, policy, mem=mem, **kwargs)


class _Scripted(Policy):
    """Admits ``t0`` at the first event, then hands the second event
    to ``second(sim)``; quiet afterwards."""

    name = "scripted"

    def __init__(self, second):
        self.second = second
        self.calls = 0

    def decide(self, sim):
        self.calls += 1
        if self.calls == 1:
            return AllocationPlan(admissions=(("t0", 2),))
        if self.calls == 2:
            return self.second(sim)
        return EMPTY_PLAN


def _two_events(soc, mem, task_factory, second):
    """Run exactly two engine events: ``t0`` is admitted at cycle 0,
    ``t1`` arrives at cycle 1 (before any block of ``t0`` can finish,
    so nothing but the second decision moves the allocation), and the
    second decision is ``second(sim)``.  Returns the simulator with
    its counters written back."""
    tasks = [
        task_factory(task_id="t0"),
        task_factory(task_id="t1", dispatch=1.0),
    ]
    sim = Simulator(soc, tasks, _Scripted(second), mem=mem, max_events=2)
    with pytest.raises(SimulationError, match="exceeded 2 events"):
        sim.run()
    assert sim.policy.calls == 2
    return sim


class TestAllocationPlanValueObject:
    def test_empty_plan(self):
        assert EMPTY_PLAN.is_empty
        assert AllocationPlan() == EMPTY_PLAN
        assert EMPTY_PLAN.job_ids() == ()

    def test_plans_are_hashable_and_diffable(self):
        a = AllocationPlan(admissions=(("t0", 2),))
        b = AllocationPlan(admissions=(("t0", 2),))
        c = AllocationPlan(admissions=(("t0", 4),))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_lists_coerced_to_tuples(self):
        plan = AllocationPlan(
            admissions=[("t0", 2)], bw_caps=[("t1", None)],
            preemptions=["t2"],
        )
        assert plan.admissions == (("t0", 2),)
        assert plan.bw_caps == (("t1", None),)
        assert plan.preemptions == ("t2",)
        assert plan.job_ids() == ("t0", "t1", "t2")

    def test_duplicate_job_in_field_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AllocationPlan(admissions=(("t0", 2), ("t0", 4)))
        with pytest.raises(ValueError, match="duplicate"):
            AllocationPlan(preemptions=("t0", "t0"))

    def test_preempt_plus_retile_rejected(self):
        with pytest.raises(ValueError, match="preempts and re-tiles"):
            AllocationPlan(preemptions=("t0",), tiles=(("t0", 4),))

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            AllocationPlan(tiles=(("t0", 1, 2),))


class TestControllerDiffing:
    def test_empty_plan_is_noop_and_keeps_epoch(self, soc, mem,
                                                task_factory):
        sim = _sim(soc, mem, task_factory)
        epoch = sim._alloc_epoch
        assert sim.controller.apply(EMPTY_PLAN) == 0
        assert sim.controller.apply(None) == 0
        assert sim._alloc_epoch == epoch
        assert sim.controller.plans_noop == 2
        assert sim.controller.plans_applied == 0

    def test_unknown_job_raises_simulation_error(self, soc, mem,
                                                 task_factory):
        sim = _sim(soc, mem, task_factory)
        with pytest.raises(SimulationError, match="unknown job"):
            sim.controller.apply(
                AllocationPlan(admissions=(("ghost", 2),))
            )

    def test_finished_job_raises_simulation_error(self, soc, mem,
                                                  task_factory):
        policy = _PlannedPairs()
        policy.reset()
        task = task_factory(task_id="t0")
        sim = Simulator(soc, [task], policy, mem=mem)
        sim.run()
        with pytest.raises(SimulationError, match="finished job"):
            sim.controller.apply(AllocationPlan(tiles=(("t0", 4),)))

    def test_atomic_allocation_coalesces_manual_mutations(
        self, soc, mem, task_factory
    ):
        # Two engine-primitive mutations between two solves (each
        # bumps the epoch) cost the engine one re-solve.
        def second(sim):
            sim.start_job(sim.jobs["t1"], 2)
            assert sim.set_tiles(sim.jobs["t0"], 4)
            return EMPTY_PLAN

        sim = _two_events(soc, mem, task_factory, second)
        assert sim.block_time_recomputes == 2
        assert sim.block_time_reuses == 0

    def test_plan_applies_atomically_one_epoch_bump(self, soc, mem,
                                                    task_factory):
        # Admissions apply in plan order.
        sim = _sim(soc, mem, task_factory, n=3)
        sim.dispatch_arrivals()
        applied = sim.controller.apply(
            AllocationPlan(
                admissions=(("t0", 2), ("t1", 2), ("t2", 2)),
            )
        )
        assert applied == 3
        assert [j.job_id for j in sim.running] == ["t0", "t1", "t2"]
        # A plan with several mutations costs one re-solve; a no-op
        # plan (restating live state) costs none.
        several = AllocationPlan(
            admissions=(("t1", 2),), tiles=(("t0", 4),),
            bw_caps=(("t0", 4.0),),
        )
        sim = _two_events(soc, mem, task_factory, lambda sim: several)
        assert sim.controller.actions_applied == 1 + 3
        assert sim.block_time_recomputes == 2
        assert sim.block_time_reuses == 0
        noop = AllocationPlan(tiles=(("t0", 2),), bw_caps=(("t0", None),))
        sim = _two_events(soc, mem, task_factory, lambda sim: noop)
        assert sim.controller.actions_applied == 1
        assert sim.controller.plans_noop >= 1
        assert sim.block_time_recomputes == 1
        assert sim.block_time_reuses == 1

    def test_restating_live_state_is_free(self, soc, mem, task_factory):
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 4),)))
        job = sim.jobs["t0"]
        epoch = sim._alloc_epoch
        applied = sim.controller.apply(
            AllocationPlan(tiles=(("t0", 4),), bw_caps=(("t0", None),))
        )
        assert applied == 0
        assert sim._alloc_epoch == epoch
        assert job.stall_cycles == 0.0
        assert job.tile_repartitions == 0
        assert job.bw_reconfigs == 0

    def test_preempt_and_readmit_same_job_in_one_plan(self, soc, mem,
                                                      task_factory):
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        applied = sim.controller.apply(
            AllocationPlan(
                preemptions=("t0",), admissions=(("t0", 6),),
            )
        )
        assert applied == 2
        assert job.phase is JobPhase.RUNNING
        assert job.tiles == 6
        assert job.preemptions == 1
        # Checkpoint-and-restart, not a repartition: no migration stall.
        assert job.stall_cycles == 0.0

    def test_bw_cap_only_plan_charges_only_memory_cost(self, soc, mem,
                                                       task_factory):
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        assert job.bw_cap == 4.0
        assert job.bw_reconfigs == 1
        assert job.stall_cycles == pytest.approx(MEMORY_RECONFIG_CYCLES)
        assert job.stall_until == pytest.approx(
            sim.now + MEMORY_RECONFIG_CYCLES
        )
        assert job.tile_repartitions == 0

    def test_shrink_funds_admission_in_same_plan(self, soc, mem,
                                                 task_factory):
        sim = _sim(soc, mem, task_factory, n=2)
        sim.dispatch_arrivals()
        sim.controller.apply(
            AllocationPlan(admissions=(("t0", soc.num_tiles),))
        )
        # Without the shrink-before-admission ordering this plan is
        # unsatisfiable: 0 tiles are free when it is submitted.
        applied = sim.controller.apply(
            AllocationPlan(
                tiles=(("t0", soc.num_tiles - 2),),
                admissions=(("t1", 2),),
            )
        )
        assert applied == 2
        assert sim.jobs["t0"].tiles == soc.num_tiles - 2
        assert sim.jobs["t1"].tiles == 2
        assert sim.free_tiles == 0

    def test_admit_and_retile_same_job_charges_migration(
        self, soc, mem, task_factory
    ):
        # start_job + set_tiles in one plan: the retile applies after
        # the admission, exactly like the imperative sequence.
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        applied = sim.controller.apply(
            AllocationPlan(admissions=(("t0", 2),), tiles=(("t0", 4),))
        )
        job = sim.jobs["t0"]
        assert applied == 2
        assert job.tiles == 4
        assert job.tile_repartitions == 1
        assert job.stall_cycles == pytest.approx(COMPUTE_RECONFIG_CYCLES)

    def test_extra_stalls_extend(self, soc, mem, task_factory):
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(
            AllocationPlan(
                admissions=(("t0", 2),), stalls=(("t0", 500.0),),
            )
        )
        assert sim.jobs["t0"].stall_cycles == pytest.approx(500.0)


class TestSameInstantDoubleChargeRegression:
    """ISSUE satellite: a tile change issued twice at the same instant
    must charge COMPUTE_RECONFIG_CYCLES exactly once."""

    def test_identical_retile_twice_same_instant_charges_once(
        self, soc, mem, task_factory
    ):
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply(AllocationPlan(tiles=(("t0", 4),)))
        sim.controller.apply(AllocationPlan(tiles=(("t0", 4),)))
        assert job.tiles == 4
        assert job.stall_cycles == pytest.approx(COMPUTE_RECONFIG_CYCLES)
        assert job.tile_repartitions == 1

    def test_reapplied_transition_after_toggle_is_free(
        self, soc, mem, task_factory
    ):
        # 2 -> 4, 4 -> 2, 2 -> 4 again at the same instant: every
        # transition charges, but the stall saturates at now + cycles
        # within an instant, so the re-application changes state but
        # costs nothing more — coincident-event re-decisions cannot
        # double-bill the migration.
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply(AllocationPlan(tiles=(("t0", 4),)))
        sim.controller.apply(AllocationPlan(tiles=(("t0", 2),)))
        charged = job.stall_cycles
        sim.controller.apply(AllocationPlan(tiles=(("t0", 4),)))
        assert job.tiles == 4
        assert job.stall_cycles == pytest.approx(charged)

    def test_identical_bw_cap_twice_same_instant_charges_once(
        self, soc, mem, task_factory
    ):
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        assert job.bw_reconfigs == 1
        assert job.stall_cycles == pytest.approx(MEMORY_RECONFIG_CYCLES)


class TestDecisionCadence:
    """The engine consults its policy at every event; no other
    schedule exists."""

    def test_every_event_is_bit_identical(self, soc, mem, task_factory):
        # The engine loop and the single-step reference loop both
        # consult the policy once per event.
        from repro.sim.reference import run_reference

        tasks = [
            task_factory(task_id=f"t{i}", network=n, dispatch=i * 1e5)
            for i, n in enumerate(("kws", "alexnet", "squeezenet"))
        ]
        engine = run_simulation(soc, tasks, _PlannedPairs(), mem=mem)
        reference = run_reference(
            Simulator(soc, tasks, _PlannedPairs(), mem=mem)
        )
        assert tuple(engine.results) == tuple(reference.results)
        assert engine.decisions == engine.events
        assert reference.decisions == reference.events

    def test_idle_system_always_decides(self, soc, mem, task_factory):
        # A lone task arriving into an idle SoC is admitted.
        task = task_factory(task_id="t0", dispatch=12345.0)
        result = run_simulation(soc, [task], _PlannedPairs(), mem=mem)
        assert result.results[0].finished_at > 0
        assert result.decisions == result.events

    def test_spec_rejects_bad_cadence(self):
        from repro.scenarios import ScenarioSpec

        for mode in ("block-boundary", "interval", "sometimes"):
            with pytest.raises(ValueError) as excinfo:
                ScenarioSpec(decision_cadence=mode)
            message = str(excinfo.value)
            assert "\n" not in message and "only 'every-event'" in message
        payload = ScenarioSpec(
            workload_set="A", num_tasks=8, seeds=(1,)
        ).to_dict()
        for extra in ({"decision_cadence": "block-boundary"},
                      {"decision_interval": 2e6}):
            with pytest.raises(ValueError) as excinfo:
                ScenarioSpec.from_dict({**payload, **extra})
            assert "\n" not in str(excinfo.value)

    def test_spec_cadence_round_trip(self):
        from repro.scenarios import ScenarioSpec

        # The one legal value round-trips and is never serialised, so
        # exports keep their bytes.
        payload = ScenarioSpec(
            workload_set="A", num_tasks=8, seeds=(1,)
        ).to_dict()
        spec = ScenarioSpec.from_dict(
            {**payload, "decision_cadence": "every-event"}
        )
        assert spec.decision_cadence == "every-event"
        assert "decision_cadence" not in spec.to_dict()
        assert "decision_interval" not in spec.to_dict()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestPolicyBridge:
    def test_policy_without_either_hook_fails_at_construction(self):
        class _Hollow(Policy):
            name = "hollow"

        # Fail fast: decide() is abstract, so the policy cannot even
        # be built, let alone handed to a simulator.
        with pytest.raises(TypeError, match="decide"):
            _Hollow()

    def test_builtin_policies_emit_plans(self, soc, mem, task_factory):
        from repro.baselines import (
            PlanariaPolicy,
            PremaPolicy,
            StaticPartitionPolicy,
        )
        from repro.core.policy import MoCAPolicy

        for cls in (PlanariaPolicy, PremaPolicy, StaticPartitionPolicy,
                    MoCAPolicy):
            sim = _sim(soc, mem, task_factory, policy=cls())
            sim.dispatch_arrivals()
            assert isinstance(sim.policy.decide(sim), AllocationPlan)


class TestTrustedPlans:
    """The controller behaviours the built-in policies' plans rely on:
    plans built from live simulator state, through the one validating
    constructor, and the fused caps-only path
    (:meth:`AllocationController.apply_caps`) beside them."""

    def test_trusted_empty_plan_is_noop(self, soc, mem, task_factory):
        sim = _sim(soc, mem, task_factory)
        noops = sim.controller.plans_noop
        assert sim.controller.apply(AllocationPlan()) == 0
        assert sim.controller.plans_noop == noops + 1

    def test_trusted_caps_only_charges_like_validated(
        self, soc, mem, task_factory
    ):
        # A caps-only plan and the fused apply_caps path charge alike.
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(
            AllocationPlan(admissions=(("t0", 2), ("t1", 2)))
        )
        assert sim.controller.apply(
            AllocationPlan(bw_caps=(("t0", 4.0),))
        ) == 1
        assert sim.controller.apply_caps((("t1", 4.0),)) == 1
        for job in (sim.jobs["t0"], sim.jobs["t1"]):
            assert job.bw_cap == 4.0
            assert job.bw_reconfigs == 1
            assert job.stall_cycles == pytest.approx(
                MEMORY_RECONFIG_CYCLES
            )

    def test_trusted_caps_restated_is_noop(self, soc, mem, task_factory):
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        noops = sim.controller.plans_noop
        assert sim.controller.apply(
            AllocationPlan(bw_caps=(("t0", 4.0),))
        ) == 0
        assert sim.controller.plans_noop == noops + 1
        assert sim.jobs["t0"].bw_reconfigs == 1

    def test_trusted_same_instant_toggle_dedupes_across_plans(
        self, soc, mem, task_factory
    ):
        # A -> B -> A across three coincident plans: the cap
        # changes all land, but the job serves exactly one
        # reconfiguration stall — stall_job saturates at now + cycles
        # within an instant.
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 8.0),)))
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        assert job.bw_cap == 4.0
        assert job.bw_reconfigs == 3
        assert job.stall_cycles == pytest.approx(MEMORY_RECONFIG_CYCLES)

    def test_trusted_dedupe_shared_with_validated_path(
        self, soc, mem, task_factory
    ):
        # Fused apply_caps charges and plans at the same instant
        # share one saturating stall.
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply_caps((("t0", 4.0),))
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 8.0),)))
        charged = job.stall_cycles
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        assert job.bw_cap == 4.0
        assert job.stall_cycles == pytest.approx(charged)

    def test_trusted_caps_unknown_job_fails_cleanly(
        self, soc, mem, task_factory
    ):
        # Through a plan and through the fused apply_caps path.
        sim = _sim(soc, mem, task_factory)
        with pytest.raises(SimulationError, match="unknown job"):
            sim.controller.apply(
                AllocationPlan(bw_caps=(("ghost", 4.0),))
            )
        with pytest.raises(SimulationError, match="unknown job"):
            sim.controller.apply_caps((("ghost", 4.0),))

    def test_trusted_general_unknown_job_fails_cleanly(
        self, soc, mem, task_factory
    ):
        sim = _sim(soc, mem, task_factory)
        with pytest.raises(SimulationError, match="unknown job"):
            sim.controller.apply(
                AllocationPlan(admissions=(("ghost", 2),))
            )

    def test_trusted_mixed_plan_uses_general_path(
        self, soc, mem, task_factory
    ):
        # Admissions + caps in one plan apply in canonical order: the
        # cap lands on the job just admitted.
        sim = _sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        applied = sim.controller.apply(AllocationPlan(
            admissions=(("t0", 2),), bw_caps=(("t0", 4.0),),
        ))
        assert applied == 2
        job = sim.jobs["t0"]
        assert job.phase is JobPhase.RUNNING
        assert job.tiles == 2 and job.bw_cap == 4.0


def _matrix_counters():
    """Decision counters of every reference-matrix cell at 16 tasks
    and seeds 1, 2, keyed by (scenario, policy, seed)."""
    counters = {}
    for spec in standard_matrix(num_tasks=16, seeds=(1, 2)):
        for name, factory in default_policies().items():
            for seed in spec.seeds:
                _, result = run_cell_detail(spec, name, factory, seed)
                counters[spec.label, name, seed] = {
                    field: getattr(result, field)
                    for field in DECISION_COUNTER_FIELDS
                }
    return counters


class TestDecisionCounters:
    def test_every_decision_is_one_plan_with_or_without_sanitizer(
        self, monkeypatch
    ):
        # The sanitizer routes every round through decide(), which
        # returns one plan; the fused MoCA round must count the same.
        # Workload-B/QoS-H at seed 2 has a round that caps and retiles
        # without admitting, the case a split apply would count twice.
        import repro.sanitizer as sanitizer

        runs = {}
        for checked in (False, True):
            monkeypatch.setattr(sanitizer, "enabled", checked)
            runs[checked] = _matrix_counters()
        for cell, c in runs[False].items():
            assert c["plans_applied"] + c["plans_noop"] == (
                c["decisions"]
            ), cell
            assert c["decisions"] == c["events"], cell
            assert c == runs[True][cell], cell
