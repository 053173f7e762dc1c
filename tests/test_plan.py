"""Tests for repro.sim.plan: AllocationPlan, AllocationController,
DecisionCadence — the declarative policy↔engine seam."""

from dataclasses import replace

import pytest

from repro.experiments.results import DECISION_COUNTER_FIELDS
from repro.experiments.runner import (
    default_policies,
    run_cell_detail,
    standard_matrix,
)
from repro.sim.engine import SimulationError, Simulator, run_simulation
from repro.sim.job import JobPhase
from repro.sim.plan import (
    CADENCE_MODES,
    EMPTY_PLAN,
    AllocationPlan,
    DecisionCadence,
)
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
        # The controller's batching pair: N mutations inside -> one
        # epoch bump, and an empty batch bumps nothing.
        sim = _sim(soc, mem, task_factory, n=2)
        sim._dispatch_arrivals()
        epoch = sim._alloc_epoch
        sim._begin_allocation_batch()
        sim.start_job(sim.jobs["t0"], 2)
        sim.start_job(sim.jobs["t1"], 2)
        sim._end_allocation_batch()
        assert sim._alloc_epoch == epoch + 1
        sim._begin_allocation_batch()
        sim._end_allocation_batch()
        assert sim._alloc_epoch == epoch + 1

    def test_plan_applies_atomically_one_epoch_bump(self, soc, mem,
                                                    task_factory):
        sim = _sim(soc, mem, task_factory, n=3)
        sim._dispatch_arrivals()
        epoch = sim._alloc_epoch
        applied = sim.controller.apply(
            AllocationPlan(
                admissions=(("t0", 2), ("t1", 2), ("t2", 2)),
            )
        )
        assert applied == 3
        # Three admissions, one cache invalidation.
        assert sim._alloc_epoch == epoch + 1
        assert [j.job_id for j in sim.running] == ["t0", "t1", "t2"]

    def test_restating_live_state_is_free(self, soc, mem, task_factory):
        sim = _sim(soc, mem, task_factory)
        sim._dispatch_arrivals()
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
        sim._dispatch_arrivals()
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
        sim._dispatch_arrivals()
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
        sim._dispatch_arrivals()
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
        sim._dispatch_arrivals()
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
        sim._dispatch_arrivals()
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
        sim._dispatch_arrivals()
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
        sim._dispatch_arrivals()
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
        sim._dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        assert job.bw_reconfigs == 1
        assert job.stall_cycles == pytest.approx(MEMORY_RECONFIG_CYCLES)


class TestDecisionCadence:
    def test_modes_validate(self):
        for mode in CADENCE_MODES:
            if mode == "interval":
                DecisionCadence(mode=mode, interval=1e6)
            else:
                DecisionCadence(mode=mode)
        with pytest.raises(ValueError, match="unknown cadence"):
            DecisionCadence(mode="sometimes")
        with pytest.raises(ValueError, match="positive"):
            DecisionCadence(mode="interval")
        with pytest.raises(ValueError, match="no interval"):
            DecisionCadence(mode="every-event", interval=5.0)
        # NaN/inf would silently disable decisions while jobs run.
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError):
                DecisionCadence(mode="interval", interval=bad)
        with pytest.raises(ValueError):
            DecisionCadence.parse("interval:nan")
        with pytest.raises(ValueError):
            DecisionCadence.parse("interval:inf")

    def test_parse_round_trips(self):
        for text in ("every-event", "block-boundary", "interval:5e6"):
            cad = DecisionCadence.parse(text)
            assert DecisionCadence.parse(cad.key) == cad
        # key must be exact for any float, not just 6 significant
        # digits (%g would turn 1234567.0 into 1.23457e+06).
        precise = DecisionCadence(mode="interval", interval=1234567.0)
        assert DecisionCadence.parse(precise.key) == precise
        with pytest.raises(ValueError):
            DecisionCadence.parse("interval")
        with pytest.raises(ValueError):
            DecisionCadence.parse("interval:zero")

    def test_every_event_is_bit_identical(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}", network=n, dispatch=i * 1e5)
            for i, n in enumerate(("kws", "alexnet", "squeezenet"))
        ]
        base = run_simulation(soc, tasks, _PlannedPairs(), mem=mem)
        explicit = run_simulation(
            soc, tasks, _PlannedPairs(), mem=mem,
            cadence=DecisionCadence.parse("every-event"),
        )
        assert tuple(base.results) == tuple(explicit.results)
        assert base.decisions == base.events

    def test_regulated_cadences_decide_less_and_still_finish(
        self, soc, mem, task_factory
    ):
        tasks = [
            task_factory(task_id=f"t{i}", network="kws",
                         dispatch=i * 1e4)
            for i in range(6)
        ]
        every = run_simulation(soc, tasks, _PlannedPairs(), mem=mem)
        for key in ("block-boundary", "interval:1e6"):
            regulated = run_simulation(
                soc, tasks, _PlannedPairs(), mem=mem,
                cadence=DecisionCadence.parse(key),
            )
            assert len(regulated.results) == len(tasks)
            assert regulated.decisions < every.decisions

    def test_idle_system_always_decides(self, soc, mem, task_factory):
        # A lone task arriving into an idle SoC must be admitted even
        # under regulated cadences (no block boundary will ever come).
        task = task_factory(task_id="t0", dispatch=12345.0)
        for key in ("block-boundary", "interval:1e9"):
            result = run_simulation(
                soc, [task], _PlannedPairs(), mem=mem,
                cadence=DecisionCadence.parse(key),
            )
            assert result.results[0].finished_at > 0

    def test_spec_cadence_round_trip(self):
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec(
            workload_set="A", num_tasks=8, seeds=(1,),
            decision_cadence="interval", decision_interval=2e6,
        )
        assert spec.cadence() == DecisionCadence("interval", 2e6)
        payload = spec.to_dict()
        assert payload["decision_cadence"] == "interval"
        assert ScenarioSpec.from_dict(payload) == spec
        # Defaults are omitted so pre-cadence exports stay pinned.
        default = ScenarioSpec(workload_set="A", num_tasks=8, seeds=(1,))
        assert "decision_cadence" not in default.to_dict()
        assert "decision_interval" not in default.to_dict()
        assert ScenarioSpec.from_dict(default.to_dict()) == default

    def test_spec_rejects_bad_cadence(self):
        from repro.scenarios import ScenarioSpec

        with pytest.raises(ValueError, match="cadence"):
            ScenarioSpec(decision_cadence="sometimes")
        with pytest.raises(ValueError, match="interval"):
            ScenarioSpec(decision_cadence="interval")


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
            sim._dispatch_arrivals()
            assert isinstance(sim.policy.decide(sim), AllocationPlan)


class TestTrustedPlans:
    """ISSUE tentpole (a): AllocationPlan.trusted skips field
    validation for plans built from live simulator state, and the
    controller resolves them through the fast path without changing
    any observable semantics."""

    def test_trusted_equals_validated_plan(self):
        a = AllocationPlan(admissions=(("t0", 2),), bw_caps=(("t1", 4.0),))
        b = AllocationPlan.trusted(
            admissions=(("t0", 2),), bw_caps=(("t1", 4.0),)
        )
        assert a == b and hash(a) == hash(b)
        assert not a._trusted and b._trusted

    def test_trusted_empty_plan_is_noop(self, soc, mem, task_factory):
        sim = _sim(soc, mem, task_factory)
        noops = sim.controller.plans_noop
        assert sim.controller.apply(AllocationPlan.trusted()) == 0
        assert sim.controller.plans_noop == noops + 1

    def test_trusted_caps_only_charges_like_validated(
        self, soc, mem, task_factory
    ):
        sim = _sim(soc, mem, task_factory)
        sim._dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        applied = sim.controller.apply(
            AllocationPlan.trusted(bw_caps=(("t0", 4.0),))
        )
        assert applied == 1
        assert job.bw_cap == 4.0
        assert job.bw_reconfigs == 1
        assert job.stall_cycles == pytest.approx(MEMORY_RECONFIG_CYCLES)

    def test_trusted_caps_restated_is_noop(self, soc, mem, task_factory):
        sim = _sim(soc, mem, task_factory)
        sim._dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        sim.controller.apply(AllocationPlan.trusted(bw_caps=(("t0", 4.0),)))
        noops = sim.controller.plans_noop
        assert sim.controller.apply(
            AllocationPlan.trusted(bw_caps=(("t0", 4.0),))
        ) == 0
        assert sim.controller.plans_noop == noops + 1
        assert sim.jobs["t0"].bw_reconfigs == 1

    def test_trusted_same_instant_toggle_dedupes_across_plans(
        self, soc, mem, task_factory
    ):
        # A -> B -> A across three coincident trusted plans: the cap
        # changes all land, but the job serves exactly one
        # reconfiguration stall — stall_job saturates at now + cycles
        # within an instant.
        sim = _sim(soc, mem, task_factory)
        sim._dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply(AllocationPlan.trusted(bw_caps=(("t0", 4.0),)))
        sim.controller.apply(AllocationPlan.trusted(bw_caps=(("t0", 8.0),)))
        sim.controller.apply(AllocationPlan.trusted(bw_caps=(("t0", 4.0),)))
        assert job.bw_cap == 4.0
        assert job.bw_reconfigs == 3
        assert job.stall_cycles == pytest.approx(MEMORY_RECONFIG_CYCLES)

    def test_trusted_dedupe_shared_with_validated_path(
        self, soc, mem, task_factory
    ):
        # Fast-path charges and *validated* plans at the same instant
        # share one saturating stall.
        sim = _sim(soc, mem, task_factory)
        sim._dispatch_arrivals()
        sim.controller.apply(AllocationPlan(admissions=(("t0", 2),)))
        job = sim.jobs["t0"]
        sim.controller.apply(AllocationPlan.trusted(bw_caps=(("t0", 4.0),)))
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 8.0),)))
        charged = job.stall_cycles
        sim.controller.apply(AllocationPlan(bw_caps=(("t0", 4.0),)))
        assert job.bw_cap == 4.0
        assert job.stall_cycles == pytest.approx(charged)

    def test_trusted_caps_unknown_job_fails_cleanly(
        self, soc, mem, task_factory, monkeypatch
    ):
        # Pin the *unchecked* error path (REPRO_CHECK=1 intercepts
        # broken trusted plans earlier; tests/test_sanitizer.py
        # covers that).
        import repro.sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "enabled", False)
        sim = _sim(soc, mem, task_factory)
        with pytest.raises(SimulationError, match="unknown job"):
            sim.controller.apply(
                AllocationPlan.trusted(bw_caps=(("ghost", 4.0),))
            )

    def test_trusted_general_unknown_job_fails_cleanly(
        self, soc, mem, task_factory, monkeypatch
    ):
        import repro.sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "enabled", False)
        sim = _sim(soc, mem, task_factory)
        with pytest.raises(SimulationError, match="unknown job"):
            sim.controller.apply(
                AllocationPlan.trusted(admissions=(("ghost", 2),))
            )

    def test_trusted_mixed_plan_uses_general_path(
        self, soc, mem, task_factory
    ):
        # Admissions + caps in one trusted plan: the general resolve
        # applies both in canonical order.
        sim = _sim(soc, mem, task_factory)
        sim._dispatch_arrivals()
        applied = sim.controller.apply(AllocationPlan.trusted(
            admissions=(("t0", 2),), bw_caps=(("t0", 4.0),),
        ))
        assert applied == 2
        job = sim.jobs["t0"]
        assert job.phase is JobPhase.RUNNING
        assert job.tiles == 2 and job.bw_cap == 4.0


def _matrix_counters(cadence="every-event", seeds=(1, 2)):
    """Decision counters of every reference-matrix cell at 16 tasks,
    keyed by (scenario, policy, seed)."""
    counters = {}
    for spec in standard_matrix(num_tasks=16, seeds=seeds):
        spec = replace(spec, decision_cadence=cadence)
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
            assert c == runs[True][cell], cell

    def test_block_boundary_reuses_epochs_more_than_every_event(self):
        def reuse_ratio(cadence):
            cells = _matrix_counters(cadence, seeds=(1,)).values()
            reuses = sum(c["block_time_reuses"] for c in cells)
            recomputes = sum(c["block_time_recomputes"] for c in cells)
            return reuses / max(recomputes, 1)

        assert reuse_ratio("block-boundary") > reuse_ratio("every-event")
