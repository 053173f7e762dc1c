"""Tests for repro.sim.engine (the fluid discrete-event simulator)."""

import pytest

from repro.baselines.static_partition import StaticPartitionPolicy
from repro.sim.engine import SimulationError, Simulator, run_simulation
from repro.sim.job import JobPhase
from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import Policy
from repro.sim.trace import TraceEvent


class _AllTilesPolicy(Policy):
    """Run one job at a time on the whole SoC (no preemption)."""

    name = "all-tiles"

    def decide(self, sim):
        if sim.ready and not sim.running:
            return AllocationPlan(
                admissions=((sim.ready[0].job_id, sim.soc.num_tiles),)
            )
        return EMPTY_PLAN

    def reset(self):
        pass


class _GreedyPairPolicy(Policy):
    """Admit everything FCFS onto 2-tile slots."""

    name = "greedy"

    def decide(self, sim):
        slots = sim.free_tiles // 2
        return AllocationPlan(
            admissions=tuple((job.job_id, 2) for job in sim.ready[:slots])
        )

    def reset(self):
        pass


class TestSingleJob:
    def test_runs_to_completion(self, soc, mem, task_factory):
        task = task_factory()
        result = run_simulation(soc, [task], _AllTilesPolicy(), mem=mem)
        assert len(result.results) == 1
        assert result.results[0].finished_at > 0

    def test_isolated_runtime_matches_prediction(self, soc, mem,
                                                 task_factory):
        # A job alone on the full SoC must finish in exactly the
        # analytical prediction (the fluid rate law's fixed point).
        task = task_factory(network="resnet50")
        result = run_simulation(soc, [task], _AllTilesPolicy(), mem=mem)
        assert result.results[0].runtime == pytest.approx(
            task.isolated_cycles, rel=1e-6
        )

    def test_dispatch_delay_respected(self, soc, mem, task_factory):
        task = task_factory(dispatch=12345.0)
        result = run_simulation(soc, [task], _AllTilesPolicy(), mem=mem)
        assert result.results[0].started_at >= 12345.0

    def test_makespan_is_last_finish(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id="a"),
            task_factory(task_id="b", dispatch=500.0),
        ]
        result = run_simulation(soc, tasks, _AllTilesPolicy(), mem=mem)
        assert result.makespan == max(r.finished_at for r in result.results)

    def test_trace_records_lifecycle(self, soc, mem, task_factory):
        task = task_factory()
        policy = _AllTilesPolicy()
        policy.reset()
        sim = Simulator(soc, [task], policy, mem=mem, trace=True)
        sim.run()
        assert sim.trace.count(TraceEvent.DISPATCH) == 1
        assert sim.trace.count(TraceEvent.START) == 1
        assert sim.trace.count(TraceEvent.FINISH) == 1
        assert sim.trace.count(TraceEvent.BLOCK_DONE) == len(task.cost.blocks)


class TestMultiJob:
    def test_concurrent_jobs_all_finish(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}", network=net)
            for i, net in enumerate(
                ("kws", "squeezenet", "yolo_lite", "alexnet")
            )
        ]
        result = run_simulation(soc, tasks, _GreedyPairPolicy(), mem=mem)
        assert len(result.results) == 4

    def test_contention_slows_corunners(self, soc, mem, task_factory):
        alone = run_simulation(
            soc, [task_factory(task_id="solo", network="alexnet")],
            _GreedyPairPolicy(), mem=mem,
        ).results[0].runtime
        tasks = [
            task_factory(task_id=f"t{i}", network="alexnet")
            for i in range(4)
        ]
        shared = run_simulation(soc, tasks, _GreedyPairPolicy(), mem=mem)
        mean_runtime = sum(r.runtime for r in shared.results) / 4
        assert mean_runtime > alone * 1.2

    def test_determinism(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}", network=n, dispatch=i * 1e5)
            for i, n in enumerate(("kws", "alexnet", "squeezenet"))
        ]
        r1 = run_simulation(soc, tasks, _GreedyPairPolicy(), mem=mem)
        r2 = run_simulation(soc, tasks, _GreedyPairPolicy(), mem=mem)
        for a, b in zip(r1.results, r2.results):
            assert a.finished_at == b.finished_at

    def test_queueing_when_slots_full(self, soc, mem, task_factory):
        # 5 tasks on 4 slots: the fifth must wait for a completion.
        tasks = [
            task_factory(task_id=f"t{i}", network="kws") for i in range(5)
        ]
        result = run_simulation(soc, tasks, _GreedyPairPolicy(), mem=mem)
        waits = sorted(r.wait_cycles for r in result.results)
        assert waits[-1] > 0

    def test_result_lookup(self, soc, mem, task_factory):
        tasks = [task_factory(task_id="a"), task_factory(task_id="b")]
        result = run_simulation(soc, tasks, _GreedyPairPolicy(), mem=mem)
        assert result.result_for("a").task_id == "a"
        with pytest.raises(KeyError):
            result.result_for("zz")


class TestEngineApi:
    def _sim(self, soc, mem, task_factory, n=2):
        tasks = [task_factory(task_id=f"t{i}") for i in range(n)]
        policy = _GreedyPairPolicy()
        policy.reset()
        return Simulator(soc, tasks, policy, mem=mem)

    def test_no_tasks_raises(self, soc, mem):
        with pytest.raises(SimulationError):
            Simulator(soc, [], _GreedyPairPolicy(), mem=mem)

    def test_duplicate_ids_raise(self, soc, mem, task_factory):
        tasks = [task_factory(task_id="x"), task_factory(task_id="x")]
        with pytest.raises(SimulationError):
            Simulator(soc, tasks, _GreedyPairPolicy(), mem=mem)

    def test_start_requires_ready(self, soc, mem, task_factory):
        sim = self._sim(soc, mem, task_factory)
        job = next(iter(sim.jobs.values()))
        with pytest.raises(SimulationError):
            sim.start_job(job, 2)  # still PENDING

    def test_overallocation_raises(self, soc, mem, task_factory):
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        job = sim.ready[0]
        with pytest.raises(SimulationError):
            sim.start_job(job, soc.num_tiles + 1)

    def test_set_tiles_charges_stall(self, soc, mem, task_factory):
        # The primitive only retiles; the controller charges the
        # migration stall centrally.
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        job = sim.ready[0]
        sim.start_job(job, 2)
        assert sim.set_tiles(job, 3)
        assert job.stall_until == 0.0
        sim.controller.apply(AllocationPlan(tiles=((job.job_id, 4),)))
        assert job.tile_repartitions == 2
        assert job.stall_until == pytest.approx(
            sim.now + sim.policy.compute_reconfig_cycles
        )

    def test_set_tiles_same_is_noop(self, soc, mem, task_factory):
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        job = sim.ready[0]
        sim.start_job(job, 2)
        sim.set_tiles(job, 2)
        assert job.tile_repartitions == 0

    def test_set_bw_cap_charges_small_stall(self, soc, mem, task_factory):
        # Caps are written only by the controller, which charges the
        # DMA issue-rate update on a caps-only and on a mixed plan.
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        job = sim.ready[0]
        sim.start_job(job, 2)
        assert sim.controller.apply_caps(((job.job_id, 2.0),)) == 1
        assert job.bw_cap == 2.0
        assert job.stall_until == pytest.approx(
            sim.now + sim.policy.memory_reconfig_cycles
        )
        sim.controller.apply(AllocationPlan(
            tiles=((job.job_id, 3),), bw_caps=((job.job_id, 4.0),)
        ))
        assert job.bw_reconfigs == 2
        assert job.stall_until == pytest.approx(
            sim.now + sim.policy.compute_reconfig_cycles
        )

    def test_set_bw_cap_equal_is_noop(self, soc, mem, task_factory):
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        job = sim.ready[0]
        sim.start_job(job, 2)
        assert sim.controller.apply_caps(((job.job_id, 4.0),)) == 1
        assert sim.controller.apply_caps(((job.job_id, 4.0),)) == 0
        assert sim.controller.apply_caps(
            ((job.job_id, 4.0 + 1e-12),)
        ) == 0
        assert job.bw_reconfigs == 1

    def test_invalid_cap_raises(self, soc, mem, task_factory):
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        job = sim.ready[0]
        sim.start_job(job, 2)
        with pytest.raises(SimulationError):
            sim.controller.apply_caps(((job.job_id, 0.0),))

    def test_preempt_returns_to_ready(self, soc, mem, task_factory):
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        job = sim.ready[0]
        sim.start_job(job, 2)
        sim.preempt(job)
        assert job.phase is JobPhase.READY
        assert job.tiles == 0
        assert job.preemptions == 1
        assert job in sim.ready

    def test_stall_job_accumulates(self, soc, mem, task_factory):
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        job = sim.ready[0]
        sim.start_job(job, 2)
        sim.stall_job(job, 100.0)
        sim.stall_job(job, 50.0)  # shorter: no extension
        assert job.stall_until == pytest.approx(100.0)
        sim.stall_job(job, 200.0)
        assert job.stall_until == pytest.approx(200.0)
        assert job.stall_cycles == pytest.approx(200.0)

    def test_free_tiles_accounting(self, soc, mem, task_factory):
        sim = self._sim(soc, mem, task_factory)
        sim.dispatch_arrivals()
        assert sim.free_tiles == soc.num_tiles
        sim.start_job(sim.ready[0], 3)
        assert sim.free_tiles == soc.num_tiles - 3


class _OverallocatingPolicy(Policy):
    name = "bad"

    def decide(self, sim):
        # Misbehaves on purpose: mutates the engine directly instead
        # of returning a plan, then sneaks extra tiles onto the first
        # runner, bypassing set_tiles.
        for job in list(sim.ready):
            if sim.free_tiles > 0:
                sim.start_job(job, sim.free_tiles)
        if sim.running:
            sim.running[0].tiles = sim.soc.num_tiles + 1
        return EMPTY_PLAN

    def reset(self):
        pass


class TestValidation:
    def test_policy_overallocation_detected(self, soc, mem, task_factory):
        tasks = [task_factory(task_id="a")]
        with pytest.raises(SimulationError, match="over-allocated"):
            run_simulation(soc, tasks, _OverallocatingPolicy(), mem=mem)


class TestReadyQueueOrdering:
    """ISSUE satellite: the ready queue is maintained with
    bisect.insort under a (dispatch_cycle, job_id) key; dispatch and
    preemption must preserve FIFO order exactly (append + stable sort
    was the historical behaviour these must keep matching)."""

    def test_coincident_dispatches_order_by_job_id(
        self, soc, mem, task_factory
    ):
        # Shuffled construction order, three tasks sharing one
        # dispatch instant plus one earlier straggler.
        tasks = [
            task_factory(task_id="c", dispatch=1000.0),
            task_factory(task_id="a", dispatch=1000.0),
            task_factory(task_id="d", dispatch=500.0),
            task_factory(task_id="b", dispatch=1000.0),
        ]
        policy = _AllTilesPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim.now = 500.0
        sim.dispatch_arrivals()
        assert [j.job_id for j in sim.ready] == ["d"]
        sim.now = 1000.0
        sim.dispatch_arrivals()
        assert [j.job_id for j in sim.ready] == ["d", "a", "b", "c"]

    def test_preempted_job_reenters_at_fifo_position(
        self, soc, mem, task_factory
    ):
        # A preempted job rejoins the queue keyed by its original
        # dispatch time — ahead of later arrivals, not at the tail.
        tasks = [
            task_factory(task_id="early", dispatch=0.0),
            task_factory(task_id="late", dispatch=100.0),
        ]
        policy = _AllTilesPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim.dispatch_arrivals()
        early = sim.jobs["early"]
        sim.start_job(early, 2)
        sim.now = 100.0
        sim.dispatch_arrivals()
        assert [j.job_id for j in sim.ready] == ["late"]
        sim.preempt(early)
        assert [j.job_id for j in sim.ready] == ["early", "late"]

    def test_ready_order_matches_append_and_sort(
        self, soc, mem, task_factory
    ):
        # Property form: for a shuffled batch of dispatch times the
        # insort-maintained queue must equal the sorted reference.
        import random

        rng = random.Random(42)
        times = [rng.choice((0.0, 0.0, 250.0, 500.0, 500.0, 750.0))
                 for _ in range(8)]
        tasks = [
            task_factory(task_id=f"t{i}", dispatch=t)
            for i, t in enumerate(times)
        ]
        rng.shuffle(tasks)
        policy = _AllTilesPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        for instant in sorted({t for t in times}):
            sim.now = instant
            sim.dispatch_arrivals()
        want = sorted(
            sim.ready, key=lambda j: (j.task.dispatch_cycle, j.job_id)
        )
        assert [j.job_id for j in sim.ready] == [j.job_id for j in want]
        assert len(sim.ready) == len(tasks)
