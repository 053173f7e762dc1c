"""The fluid discrete-event multi-tenant SoC simulator.

This is the reproduction's substitute for the paper's FireSim RTL
simulation (see DESIGN.md §4).  Jobs progress through their networks'
layer blocks at rates derived from Algorithm 1's latency law under the
current resource allocation:

- a job holding ``k`` tiles and granted a DRAM share ``s`` executes its
  current block in ``T = max(T_full(k), From_DRAM / s)`` cycles, where
  ``T_full`` is the unconstrained Algorithm 1 prediction — the job is
  limited either by its own compute/memory structure or by draining its
  DRAM traffic at the granted share;
- DRAM shares come from the arbiter: demand-proportional when
  unmanaged, clamped by MoCA's throttle caps when regulated;
- between events all rates are constant, so the engine advances
  analytically from event to event (no per-cycle stepping) and is
  exactly deterministic.

Events: task dispatch, block completion, stall expiry (migration or
reconfiguration penalties) and policy-initiated changes.

Incremental recomputation
-------------------------

``current_block_times()`` (each running job's block latency under the
current allocation, including the bandwidth-arbiter solve) only depends
on *allocation state*: the set of unstalled running jobs, their current
blocks, tile counts and throttle caps.  The engine maintains an
**allocation epoch** counter that every state mutation bumps
(``start_job`` / ``set_tiles`` / ``set_bw_cap`` / ``preempt`` /
``stall_job`` / block retirement / stall expiry); between bumps the
solve is served from cache instead of being recomputed on every event.
Per-block unconstrained predictions are additionally memoised on the
:class:`~repro.core.latency.BlockCost` instances themselves, since
jobs revisit the same blocks under the same allocations thousands of
times per run.  Both caches are exact — the epoch cache is invalidated
on *any* state change, the prediction memo keys on every input of the
pure function — so the simulation stays bit-identical to the
always-recompute engine.

Declarative decisions
---------------------

Policies are consulted at decision points gated by a
:class:`~repro.sim.plan.DecisionCadence` (every event by default;
block boundaries or a fixed cycle interval when regulated) and return
:class:`~repro.sim.plan.AllocationPlan`\\ s that the engine's
:class:`~repro.sim.plan.AllocationController` applies atomically — an
applied plan bumps the allocation epoch exactly once
(:meth:`Simulator.atomic_allocation`), a no-op plan not at all, and
reconfiguration costs are charged centrally by the controller.
Legacy imperative policies (overriding ``Policy.on_event``) are
invoked directly at the same decision points.
"""

from __future__ import annotations

import heapq
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import repro.sanitizer as sanitizer
from repro.config import SoCConfig
from repro.memory.arbiter import _REL_TOL, allocate_bandwidth, waterfill_grants
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.job import Job, JobPhase, Task, TaskResult, results_from_jobs
from repro.sim.plan import (
    EMPTY_PLAN,
    AllocationController,
    DecisionCadence,
    EVERY_EVENT,
)
from repro.sim.policy import Policy
from repro.sim.trace import Trace, TraceEvent

_COMPLETION_EPS = 1e-9
_MIN_DT = 1e-6

# Ready-queue ordering: FIFO by dispatch time, job id as tie-break.
# Keys are unique (job ids are), so maintaining the queue with
# bisect.insort is exactly equivalent to append + stable sort.
_READY_KEY = lambda j: (j.task.dispatch_cycle, j.job_id)  # noqa: E731


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an invalid or stuck state."""


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run.

    Attributes:
        policy_name: The policy that produced the run.
        results: Per-task outcomes, sorted by task id.
        makespan: Cycle at which the last task finished.
        trace: The event trace (may be disabled/empty).
        events: Simulation events processed by the engine loop.
        block_time_recomputes: Full ``current_block_times`` solves
            (prediction + arbiter) the run actually performed.
        block_time_reuses: Solves served from the epoch cache instead.
        cost_cache_hits / cost_cache_misses: Network-cost cache probes
            during this run (attributed per run via
            :class:`repro.core.latency.track_cache_deltas`, so
            interleaved or nested runs cannot double-count — a warm
            worker shows zero misses here).
        predict_memo_hits / predict_memo_misses: ``BlockCost.predict``
            memo probes during this run, same delta convention.
        decisions: Times the policy was consulted for a plan (under
            the default every-event cadence this equals ``events``;
            regulated cadences consult less often).
        plans_applied: Plans that performed at least one mutation.
        plans_noop: Plans that performed none (empty or all no-op) —
            these leave the allocation epoch untouched.
        plan_actions: Total mutations applied through the
            :class:`~repro.sim.plan.AllocationController` (0 for
            legacy imperative policies, which mutate directly).
    """

    policy_name: str
    results: Sequence[TaskResult]
    makespan: float
    trace: Trace
    events: int = 0
    block_time_recomputes: int = 0
    block_time_reuses: int = 0
    cost_cache_hits: int = 0
    cost_cache_misses: int = 0
    predict_memo_hits: int = 0
    predict_memo_misses: int = 0
    decisions: int = 0
    plans_applied: int = 0
    plans_noop: int = 0
    plan_actions: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_task", {r.task_id: r for r in self.results}
        )

    def result_for(self, task_id: str) -> TaskResult:
        """Look up one task's result."""
        try:
            return self._by_task[task_id]
        except KeyError:
            raise KeyError(f"no result for task {task_id!r}") from None


class Simulator:
    """Fluid discrete-event simulator of the Table II SoC.

    Attributes:
        soc: SoC configuration.
        mem: Shared-memory hierarchy.
        policy: The multi-tenancy policy driving decisions.
        now: Current simulation time in cycles.
        jobs: All jobs by id.
        ready: Dispatched jobs waiting in the task queue (FIFO by
            dispatch time).
        running: Jobs currently holding tiles.
        finished: Completed jobs.
        trace: Event log.
    """

    def __init__(
        self,
        soc: SoCConfig,
        tasks: Sequence[Task],
        policy: Policy,
        mem: Optional[MemoryHierarchy] = None,
        trace: bool = False,
        max_events: int = 20_000_000,
        cadence: Optional[DecisionCadence] = None,
        solver: str = "kernel",
    ) -> None:
        if not tasks:
            raise SimulationError("no tasks to simulate")
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate task ids")
        if solver not in ("kernel", "vector", "scalar"):
            raise SimulationError(
                f"unknown solver {solver!r} "
                f"(expected 'kernel', 'vector' or 'scalar')"
            )
        self.soc = soc
        self.mem = mem if mem is not None else MemoryHierarchy.from_soc(soc)
        if (
            not policy.emits_plans
            and type(policy).on_event is Policy.on_event
        ):
            # Fail at construction, not at the first decision point
            # mid-simulation (the abc guard this seam replaced).
            raise SimulationError(
                f"policy {policy.name!r} implements neither decide() "
                f"nor on_event()"
            )
        self.policy = policy
        self.now = 0.0
        self.jobs: Dict[str, Job] = {
            t.task_id: Job(task=t) for t in tasks
        }
        # Arrival priority queue: (dispatch_cycle, -seq, job).  The
        # negative sequence number reproduces the historical pop order
        # for coincident dispatch times (descending job id).
        ordered = sorted(
            self.jobs.values(),
            key=lambda j: (j.task.dispatch_cycle, j.job_id),
        )
        self._pending: List[Tuple[float, int, Job]] = [
            (j.task.dispatch_cycle, -i, j) for i, j in enumerate(ordered)
        ]
        heapq.heapify(self._pending)
        self.ready: List[Job] = []
        self.running: List[Job] = []
        self.finished: List[Job] = []
        self._tiles_held = 0
        self.trace = Trace(enabled=trace)
        self._max_events = max_events
        self._block_T: Mapping[str, float] = {}
        # Structure-of-arrays runtime tables (one per task's network,
        # memoised on the NetworkCost so shared networks build once):
        # every (block, tiles) point the run can ever evaluate,
        # precomputed in one numpy batch.  The vectorized solver and
        # MoCA's batched regulation read these instead of probing the
        # predict memo per call; the tables are bit-identical to
        # BlockCost.predict, so either solver yields the same floats.
        self.solver = solver
        dram_bw = self.mem.dram_bandwidth
        l2_bw = self.mem.l2_bandwidth
        self._job_tables = {
            t.task_id: t.cost.runtime_table(
                dram_bw, l2_bw, soc.overlap_f, soc.num_tiles
            )
            for t in tasks
        }
        for job in self.jobs.values():
            # Direct reference for the vectorized solver: one
            # attribute read instead of a dict probe per job per
            # solve.
            job._table = self._job_tables[job.job_id]
        # The kernel's external probe/oracle solve is the vectorized
        # one: current_block_times() and the sanitizer spot-check stay
        # correct (and epoch-cached) whichever loop is driving.
        self._solve = (
            self._solve_scalar if solver == "scalar" else self._solve_vector
        )
        # Constants the per-event solve would otherwise re-derive
        # through property chains.
        self._dram_bw = dram_bw
        self._contention_penalty = self.mem.dram.contention_penalty
        # Incremental-recompute state (see module docstring).
        self._alloc_epoch = 0
        self._times_epoch = -1
        self._times_raw: Dict[str, float] = {}
        self._validated_state = (-1, -1)
        self._solve_checks = 0
        self.events = 0
        self.block_time_recomputes = 0
        self.block_time_reuses = 0
        # Declarative decision machinery (see repro.sim.plan): the
        # controller applies AllocationPlans; the cadence gates when
        # the policy is consulted.
        self.cadence = cadence if cadence is not None else EVERY_EVENT
        # The default cadence consults the policy unconditionally;
        # resolved to a flag so the hot loop skips _should_decide.
        self._cadence_every = self.cadence.mode == "every-event"
        self.controller = AllocationController(self)
        # Which seam the policy implements, resolved once (the
        # property does a type lookup; this runs every event).
        self._policy_emits_plans = policy.emits_plans
        self.decisions = 0
        self._boundaries = 0          # blocks retired so far
        self._decided_boundaries = -1  # _boundaries at the last decision
        self._last_decision_at: Optional[float] = None
        # Epoch batching: inside atomic_allocation() any number of
        # mutations coalesce to a single epoch bump.
        self._epoch_batch_depth = 0
        self._epoch_batch_dirty = False

    # ------------------------------------------------------------------
    # Policy-facing API
    # ------------------------------------------------------------------

    @property
    def free_tiles(self) -> int:
        """Tiles not currently held by any running job.

        Maintained as a running counter (policies probe this several
        times per event; summing the running list was measurable).
        :meth:`_validate` cross-checks the counter against the ground
        truth every event.
        """
        return self.soc.num_tiles - self._tiles_held

    @property
    def has_pending_arrivals(self) -> bool:
        """Whether any task has yet to be dispatched (read-only)."""
        return bool(self._pending)

    def start_job(self, job: Job, tiles: int) -> None:
        """Admit a READY job onto ``tiles`` tiles."""
        if job.phase is not JobPhase.READY:
            raise SimulationError(f"{job.job_id} is not ready")
        if tiles <= 0 or tiles > self.free_tiles:
            raise SimulationError(
                f"cannot grant {tiles} tiles ({self.free_tiles} free)"
            )
        self.ready.remove(job)
        job.phase = JobPhase.RUNNING
        job.tiles = tiles
        self._tiles_held += tiles
        if job.started_at is None:
            job.started_at = self.now
        self.running.append(job)
        self._bump_epoch()
        self.trace.log(self.now, TraceEvent.START, job.job_id,
                       f"tiles={tiles}")

    def set_tiles(self, job: Job, tiles: int, charge: bool = True) -> bool:
        """Repartition a running job's tiles.

        ``charge=True`` (the legacy imperative seam) charges the
        compute-migration stall here; the
        :class:`~repro.sim.plan.AllocationController` passes
        ``charge=False`` and accounts the cost centrally (with
        same-instant dedupe).

        Returns:
            Whether the tile count actually changed — this is the
            single source of no-op detection, shared by the
            imperative seam and the controller's diffing.
        """
        if job.phase is not JobPhase.RUNNING:
            raise SimulationError(f"{job.job_id} is not running")
        if tiles <= 0:
            raise SimulationError("tiles must be positive")
        if tiles == job.tiles:
            return False
        extra = tiles - job.tiles
        if extra > self.free_tiles:
            raise SimulationError(
                f"cannot grow {job.job_id} by {extra} tiles "
                f"({self.free_tiles} free)"
            )
        self._tiles_held += tiles - job.tiles
        job.tiles = tiles
        job.tile_repartitions += 1
        self._bump_epoch()
        if charge:
            self.stall_job(job, self.policy.compute_reconfig_cycles)
        self.trace.log(self.now, TraceEvent.TILE_REPARTITION, job.job_id,
                       f"tiles={tiles}")
        return True

    def set_bw_cap(
        self, job: Job, cap: Optional[float], charge: bool = True
    ) -> bool:
        """Reconfigure a job's memory throttle.

        ``charge=True`` (the legacy imperative seam) charges the 5-10
        cycle DMA issue-rate update here; the
        :class:`~repro.sim.plan.AllocationController` passes
        ``charge=False`` and accounts the cost centrally.

        Returns:
            Whether the cap actually changed (same-value and
            within-tolerance re-applications are no-ops).
        """
        if job.phase is not JobPhase.RUNNING:
            raise SimulationError(f"{job.job_id} is not running")
        if cap is not None and cap <= 0:
            raise SimulationError("bandwidth cap must be positive")
        old = job.bw_cap
        if old == cap or (
            old is not None and cap is not None
            and abs(old - cap) < 1e-9
        ):
            return False
        job.bw_cap = cap
        job.bw_reconfigs += 1
        self._bump_epoch()
        if charge:
            self.stall_job(job, self.policy.memory_reconfig_cycles)
        if self.trace.enabled:
            self.trace.log(
                self.now, TraceEvent.BW_RECONFIG, job.job_id,
                f"cap={'none' if cap is None else f'{cap:.2f}B/cyc'}",
            )
        return True

    def preempt(self, job: Job) -> None:
        """Return a running job to the ready queue (block progress is
        retained — checkpointing happens at layer boundaries)."""
        if job.phase is not JobPhase.RUNNING:
            raise SimulationError(f"{job.job_id} is not running")
        self.running.remove(job)
        job.phase = JobPhase.READY
        self._tiles_held -= job.tiles
        job.tiles = 0
        job.bw_cap = None
        job.preemptions += 1
        insort(self.ready, job, key=_READY_KEY)
        self._bump_epoch()
        self.trace.log(self.now, TraceEvent.PREEMPT, job.job_id)

    def stall_job(self, job: Job, cycles: float) -> None:
        """Stall a job for ``cycles`` (extends any current stall)."""
        if cycles < 0:
            raise SimulationError("stall cycles must be non-negative")
        if cycles == 0:
            return
        base = max(job.stall_until, self.now)
        new_until = self.now + cycles
        if new_until > base:
            job.stall_cycles += new_until - base
            job.stall_until = new_until
            self._bump_epoch()

    # ------------------------------------------------------------------
    # Allocation-epoch bookkeeping
    # ------------------------------------------------------------------

    def _bump_epoch(self) -> None:
        """Invalidate the block-time cache (deferred inside a batch)."""
        if self._epoch_batch_depth:
            self._epoch_batch_dirty = True
        else:
            self._alloc_epoch += 1

    def _begin_allocation_batch(self) -> None:
        """Enter a deferred-epoch batch (see :meth:`atomic_allocation`).

        Paired with :meth:`_end_allocation_batch`; the controller
        calls the pair directly because a contextmanager generator per
        applied plan is measurable overhead on the engine's hottest
        path.  This pair is the single source of the batching
        semantics — :meth:`atomic_allocation` is sugar over it.
        """
        self._epoch_batch_depth += 1

    def _end_allocation_batch(self) -> None:
        """Leave a deferred-epoch batch; the outermost exit performs
        the single coalesced epoch bump if anything mutated."""
        self._epoch_batch_depth -= 1
        if self._epoch_batch_depth == 0 and self._epoch_batch_dirty:
            self._epoch_batch_dirty = False
            self._alloc_epoch += 1

    @contextmanager
    def atomic_allocation(self) -> Iterator[None]:
        """Coalesce every mutation inside the block into **one**
        allocation-epoch bump (none at all if nothing mutated).

        This is how the :class:`~repro.sim.plan.AllocationController`
        applies a whole plan at the cost of a single cache
        invalidation; the cache stays exact because the bump (when
        any mutation occurred) still lands before the next
        :meth:`current_block_times` call.  Re-entrant: nested blocks
        defer to the outermost one.
        """
        self._begin_allocation_batch()
        try:
            yield
        finally:
            self._end_allocation_batch()

    # ------------------------------------------------------------------
    # Engine core
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Run to completion and return per-task results."""
        # Cache telemetry is attributed through a per-run frame (not a
        # diff of the process-global counters), so interleaved
        # construct-then-run sequences, nested simulations and
        # mid-run reset_cache_stats() calls can neither double-count
        # nor drive the deltas negative.
        from repro.core.latency import track_cache_deltas

        with track_cache_deltas() as cache_delta:
            if self.solver == "kernel":
                self._advance_horizon()
            else:
                self._run_incremental()
        makespan = max((j.finished_at or 0.0) for j in self.finished)
        return SimResult(
            policy_name=self.policy.name,
            results=results_from_jobs(self.finished),
            makespan=makespan,
            trace=self.trace,
            events=self.events,
            block_time_recomputes=self.block_time_recomputes,
            block_time_reuses=self.block_time_reuses,
            decisions=self.decisions,
            plans_applied=self.controller.plans_applied,
            plans_noop=self.controller.plans_noop,
            plan_actions=self.controller.actions_applied,
            **cache_delta,
        )

    def _run_incremental(self) -> None:
        """The single-step reference loop: one solve, one advance, one
        retirement pass per event, each through the documented
        primitives.  Kept verbatim as the oracle the horizon kernel is
        pinned against (property tests + the ``REPRO_CHECK=1`` spot
        check)."""
        while len(self.finished) < len(self.jobs):
            self.events += 1
            if self.events > self._max_events:
                raise SimulationError(
                    f"exceeded {self._max_events} events; "
                    f"{len(self.finished)}/{len(self.jobs)} tasks done "
                    f"at cycle {self.now:,.0f}"
                )
            pending = self._pending
            if pending and (
                pending[0][0] <= self.now + _COMPLETION_EPS
            ):
                self._dispatch_arrivals()
            if self._cadence_every or self._should_decide():
                self._consult_policy()
            if (
                self._tiles_held, len(self.running)
            ) != self._validated_state:
                self._validate()
            if not self._step():
                if self._pending:
                    # Idle gap: jump to the next arrival.
                    self.now = self._pending[0][0]
                    continue
                raise SimulationError(
                    f"deadlock at cycle {self.now:,.0f}: "
                    f"{len(self.ready)} ready, "
                    f"{len(self.running)} running, "
                    f"policy {self.policy.name!r} made no progress"
                )

    def _advance_horizon(self) -> None:
        """The epoch-horizon kernel loop (``solver="kernel"``, the
        default).

        Between allocation-epoch bumps every live job's block
        schedule is fixed, so the loop keeps the whole solve state in
        per-job slots (``Job._kval`` table rows, ``Job._kT`` block
        times) and locals, and advances horizon by horizon: each
        iteration finds the next *epoch-relevant boundary* — the
        earliest of next arrival, stall expiry, and block completion
        under the current allocation — advances straight to it, and
        retires every block that lands there in one fused sweep.
        Decision points are gated exactly like the reference loop,
        with two extra fusions:

        - a policy implementing ``kernel_noop_guard`` lets provably
          empty decision rounds skip the ``decide()`` call outright
          (the bookkeeping the round would have performed — decision
          count, cadence markers — still happens);
        - a policy implementing ``kernel_decide_apply`` runs its
          caps-only steady-state rounds fused, applying cap changes in
          place through the controller's trusted journal instead of
          round-tripping a plan object.

        Every float operation replicates the reference loop's
        sequence exactly — the solve is :meth:`_solve_vector`
        specialised to slot state, the dt scan, progress accrual and
        retirement order are verbatim — so results and makespans are
        bit-identical to the incremental loop (property-pinned in
        tests/test_kernel.py; goldens unchanged).  Under
        ``REPRO_CHECK=1`` the fused apply is disabled (every plan
        passes the sanitizer's trusted re-validation) and the fused
        solve is spot-checked against the incremental oracle on the
        first epoch and every 64th.
        """
        policy = self.policy
        emits = self._policy_emits_plans
        san_on = sanitizer.enabled
        guard = policy.kernel_noop_guard
        fused = None if san_on else policy.kernel_decide_apply
        cadence_every = self._cadence_every
        controller = self.controller
        apply_plan = controller.apply
        decide = policy.decide if emits else None
        on_event = None if emits else policy.on_event
        jobs_total = len(self.jobs)
        finished = self.finished
        running = self.running
        pending = self._pending
        max_events = self._max_events
        trace = self.trace
        eps = _COMPLETION_EPS
        done_thr = 1.0 - eps
        min_dt = _MIN_DT
        inf = float("inf")
        dram_bw = self._dram_bw
        penalty = self._contention_penalty
        rel1 = 1 + _REL_TOL
        events = self.events
        recomputes = self.block_time_recomputes
        reuses = self.block_time_reuses
        decisions = self.decisions
        noops = 0
        checks = self._solve_checks
        solved_epoch = -1
        # The running list partitioned by stalledness at the last
        # recompute.  Valid until the next epoch bump: every mutation
        # that moves a job between the partitions (stall expiry, new
        # stall, retire, admission, preemption) bumps the allocation
        # epoch, which forces a recompute that rebuilds both lists.
        # ``act`` preserves running order, so the completion sweep
        # retires blocks in the reference order.
        act = []
        stl = []
        dispatch = self._dispatch_arrivals
        next_arrival = pending[0][0] if pending else inf
        try:
            while len(finished) < jobs_total:
                events += 1
                if events > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; "
                        f"{len(finished)}/{jobs_total} tasks done "
                        f"at cycle {self.now:,.0f}"
                    )
                now = self.now
                if next_arrival <= now + eps:
                    dispatch()
                    next_arrival = pending[0][0] if pending else inf
                if cadence_every or self._should_decide():
                    decisions += 1
                    if not cadence_every:
                        self._decided_boundaries = self._boundaries
                        self._last_decision_at = now
                    if emits:
                        if guard is not None and guard(self):
                            # Provably-empty round: same bookkeeping,
                            # no decide() call.
                            noops += 1
                        elif fused is not None:
                            fused(self)
                        else:
                            plan = decide(self)
                            if plan is EMPTY_PLAN:
                                noops += 1
                            else:
                                apply_plan(plan)
                    else:
                        on_event(self)
                vstate = self._validated_state
                if (
                    vstate[0] != self._tiles_held
                    or vstate[1] != len(running)
                ):
                    self._validate()
                # ---- fused solve + next-boundary scan --------------
                # _solve_vector + _step's dt scan specialised to slot
                # state: same passes, same float sequence.
                best = inf
                if next_arrival != inf:
                    c = next_arrival - now
                    if c >= 0:
                        best = c
                epoch = self._alloc_epoch
                if epoch != solved_epoch:
                    recomputes += 1
                    solved_epoch = epoch
                    total_wants = 0.0
                    streams = 0
                    # One pass over the running list: stall candidates
                    # fold into ``best`` here (``best`` is a pure min,
                    # so candidate order is free), active jobs collect
                    # into parallel job/want lists so the branch passes
                    # below never re-read caps or re-check stalls.
                    act = []
                    stl = []
                    wl = []
                    for job in running:
                        su = job.stall_until
                        if now < su:
                            stl.append(job)
                            c = su - now
                            if c < best:
                                best = c
                            continue
                        bi = job.block_idx
                        tiles = job.tiles
                        v = job._kval
                        if v is None or v[0] != bi or v[1] != tiles:
                            table = job._table
                            col = tiles - 1
                            v = (
                                bi, tiles,
                                table.t_full_rows[bi][col],
                                table.from_dram[bi],
                                table.demand_rows[bi][col],
                            )
                            job._kval = v
                        d = v[4]
                        cap = job.bw_cap
                        if cap is not None and cap < d:
                            w = cap
                        else:
                            w = d
                        total_wants += w
                        if w > 0:
                            streams += 1
                        act.append(job)
                        wl.append(w)
                    if act:
                        effective = dram_bw
                        if total_wants > effective and streams > 1:
                            effective *= (
                                1.0 - penalty * (1.0 - 1.0 / streams)
                            )
                        if total_wants <= effective * rel1:
                            # Undersubscribed: independent times; the
                            # capped want is each job's share.
                            for i, job in enumerate(act):
                                v = job._kval
                                fd = v[3]
                                if fd <= 0:
                                    T = v[2]
                                else:
                                    share = wl[i]
                                    if share <= 0:
                                        T = inf
                                    else:
                                        fdd = fd / share
                                        tf = v[2]
                                        T = tf if tf > fdd else fdd
                                job._kT = T
                                if T != inf:
                                    c = (1.0 - job.progress) * T
                                    if 0 <= c < best:
                                        best = c
                        else:
                            # Oversubscribed: shared water-fill core.
                            shares, _ = waterfill_grants(
                                wl,
                                [j._kval[4] for j in act],
                                effective,
                            )
                            for i, job in enumerate(act):
                                v = job._kval
                                fd = v[3]
                                share = shares[i]
                                if fd <= 0:
                                    T = v[2]
                                elif share <= 0:
                                    T = inf
                                else:
                                    fdd = fd / share
                                    tf = v[2]
                                    T = tf if tf > fdd else fdd
                                job._kT = T
                                if T != inf:
                                    c = (1.0 - job.progress) * T
                                    if 0 <= c < best:
                                        best = c
                    if san_on:
                        checks += 1
                        if checks == 1 or checks % 64 == 0:
                            # The full agreement chain at the sample
                            # point: vector vs scalar (the incremental
                            # path's own spot-check), then the fused
                            # kernel solve vs the vector oracle.
                            oracle = self._solve()
                            sanitizer.check_solver_agreement(
                                oracle, self._solve_scalar(), now
                            )
                            kernel_times = {
                                j.job_id: j._kT
                                for j in running
                                if now >= j.stall_until
                            }
                            sanitizer.check_kernel_agreement(
                                kernel_times, oracle, now
                            )
                else:
                    reuses += 1
                    for job in stl:
                        c = job.stall_until - now
                        if c < best:
                            best = c
                    for job in act:
                        T = job._kT
                        if T != inf:
                            c = (1.0 - job.progress) * T
                            if 0 <= c < best:
                                best = c
                if best == inf:
                    if pending:
                        # Idle gap: jump to the next arrival.
                        self.now = pending[0][0]
                        continue
                    raise SimulationError(
                        f"deadlock at cycle {self.now:,.0f}: "
                        f"{len(self.ready)} ready, "
                        f"{len(running)} running, "
                        f"policy {policy.name!r} made no progress"
                    )
                # ---- fused advance + batched retire sweep ----------
                dt = best if best >= min_dt else min_dt
                new_now = now + dt
                stall_expired = False
                completed = None
                for job in stl:
                    # A stall expiring re-activates the job: the
                    # arbiter's active set changed even though no
                    # allocation call ran.
                    if job.stall_until <= new_now:
                        stall_expired = True
                for job in act:
                    T = job._kT
                    if T == inf or T <= 0:
                        continue
                    p = job.progress + dt / T
                    if p > 1.0:
                        p = 1.0
                    job.progress = p
                    if p >= done_thr:
                        if completed is None:
                            completed = [job]
                        else:
                            completed.append(job)
                self.now = new_now
                if stall_expired:
                    self._alloc_epoch += 1
                if completed:
                    # Every block that landed on this horizon retires
                    # in one sweep, in running order (the reference
                    # _retire_completed order).
                    trace_on = trace.enabled
                    for job in completed:
                        job.block_idx += 1
                        job.progress = 0.0
                        self._alloc_epoch += 1
                        self._boundaries += 1
                        if trace_on:
                            trace.log(
                                new_now, TraceEvent.BLOCK_DONE,
                                job.job_id,
                                f"block={job.block_idx - 1}",
                            )
                        if job.block_idx >= len(job.task.cost.blocks):
                            job.phase = JobPhase.FINISHED
                            job.finished_at = new_now
                            self._tiles_held -= job.tiles
                            job.tiles = 0
                            job.bw_cap = None
                            running.remove(job)
                            finished.append(job)
                            trace.log(
                                new_now, TraceEvent.FINISH, job.job_id
                            )
                            policy.on_job_finished(self, job)
        finally:
            self.events = events
            self.block_time_recomputes = recomputes
            self.block_time_reuses = reuses
            self.decisions = decisions
            if san_on:
                self._solve_checks = checks
            controller.plans_noop += noops

    def _should_decide(self) -> bool:
        """Whether the cadence grants the policy this event.

        Every cadence decides while nothing is running — a ready
        queue with the whole SoC idle must never wait on a regulation
        boundary that can no longer arrive.
        """
        mode = self.cadence.mode
        if mode == "every-event":
            return True
        if not self.running:
            return True
        if mode == "block-boundary":
            return self._boundaries != self._decided_boundaries
        # "interval"
        return (
            self._last_decision_at is None
            or self.now - self._last_decision_at >= self.cadence.interval
        )

    def _consult_policy(self) -> None:
        """One decision point: collect the policy's plan and apply it
        (or invoke a legacy imperative policy directly)."""
        self.decisions += 1
        self._decided_boundaries = self._boundaries
        self._last_decision_at = self.now
        if self._policy_emits_plans:
            plan = self.policy.decide(self)
            if plan is EMPTY_PLAN:
                # The dominant outcome on the hot path; counting it
                # here skips the controller dispatch entirely.
                self.controller.plans_noop += 1
            else:
                self.controller.apply(plan)
        else:
            self.policy.on_event(self)

    def _dispatch_arrivals(self) -> None:
        """Move pending tasks whose dispatch time has come to READY.

        Each arrival is inserted at its sorted position; re-sorting
        the whole ready queue per dispatch batch was O(n log n) per
        event under load (see tests/test_engine.py ordering
        regression).
        """
        while self._pending and (
            self._pending[0][0] <= self.now + _COMPLETION_EPS
        ):
            _, _, job = heapq.heappop(self._pending)
            job.phase = JobPhase.READY
            insort(self.ready, job, key=_READY_KEY)
            if self.trace.enabled:
                self.trace.log(
                    job.task.dispatch_cycle, TraceEvent.DISPATCH, job.job_id,
                    f"net={job.task.network_name} prio={job.task.priority}",
                )

    def current_block_times(self) -> Mapping[str, float]:
        """Per running job: cycles its current block needs under the
        current allocation (the fluid rate law).

        Served from cache while the allocation epoch is unchanged; the
        returned mapping is a read-only view (mutating it would
        corrupt the cache, so it is a :class:`types.MappingProxyType`).

        The solve itself runs through the solver selected at
        construction: ``"vector"`` (default) reads the precomputed
        structure-of-arrays runtime tables and inlines the arbiter
        core; ``"scalar"`` is the original per-job loop, kept as the
        reference oracle.  Both produce bit-identical mappings
        (property-tested in tests/test_vectorized.py).
        """
        return MappingProxyType(self._times_now())

    def _times_now(self) -> Dict[str, float]:
        """Cache probe returning the *raw* block-time dict.

        Internal hot-path counterpart of :meth:`current_block_times`
        (same cache, same telemetry counters) that skips the
        read-only proxy wrapper — the engine trusts itself not to
        mutate the mapping.
        """
        if self._times_epoch == self._alloc_epoch:
            self.block_time_reuses += 1
        else:
            self.block_time_recomputes += 1
            self._times_raw = self._solve()
            self._times_epoch = self._alloc_epoch
            if sanitizer.enabled and self.solver != "scalar":
                # Spot-check the vectorized solve against the scalar
                # oracle: the first recompute plus every 64th (the
                # bit-identical contract, sampled so sanitized runs
                # stay usable on full sweeps).
                self._solve_checks += 1
                if self._solve_checks == 1 or (
                    self._solve_checks % 64 == 0
                ):
                    sanitizer.check_solver_agreement(
                        self._times_raw, self._solve_scalar(), self.now
                    )
        return self._times_raw

    def _solve_scalar(self) -> Dict[str, float]:
        """Reference block-time solve: per-job ``predict`` calls plus
        the validated dict-based arbiter."""
        dram_bw = self.mem.dram_bandwidth
        l2_bw = self.mem.l2_bandwidth
        overlap_f = self.soc.overlap_f
        active = [
            j for j in self.running if not j.is_stalled(self.now)
        ]
        demands: Dict[str, float] = {}
        t_full: Dict[str, float] = {}
        for job in active:
            cost = job.current_block
            # predict() is memoised on the BlockCost itself, so this
            # is a dict lookup for revisited (tiles, bandwidth) points.
            full = cost.predict(job.tiles, dram_bw, l2_bw, overlap_f)
            t_full[job.job_id] = full
            demands[job.job_id] = (
                cost.from_dram_bytes / full if full > 0 else 0.0
            )
        caps = {
            j.job_id: j.bw_cap
            for j in active
            if j.bw_cap is not None
        }
        # Achieved total bandwidth degrades when the co-runners'
        # regulated demand oversubscribes the channel (row-buffer
        # thrash under interleaving); throttled systems that keep the
        # total under the peak retain single-stream efficiency.
        shares: Dict[str, float] = {}
        if demands:
            wants = {
                jid: min(d, caps.get(jid, float("inf")))
                for jid, d in demands.items()
            }
            total_wants = sum(wants.values())
            streams = sum(1 for w in wants.values() if w > 0)
            effective = self.mem.dram.effective_bandwidth(
                streams, oversubscribed=total_wants > dram_bw
            )
            shares = allocate_bandwidth(demands, effective, caps)
        times: Dict[str, float] = {}
        for job in active:
            jid = job.job_id
            from_dram = job.current_block.from_dram_bytes
            share = shares.get(jid, 0.0)
            if from_dram <= 0:
                times[jid] = t_full[jid]
            elif share <= 0:
                times[jid] = float("inf")
            else:
                times[jid] = max(t_full[jid], from_dram / share)
        return times

    def _solve_vector(self) -> Dict[str, float]:
        """Hot-path block-time solve over structure-of-arrays state.

        One pass over the running jobs gathers parallel lists
        (t_full, demand, from_dram, capped want) straight from the
        precomputed runtime tables — no ``predict`` calls, no memo
        probes, no intermediate dicts — then feeds the shared
        :func:`~repro.memory.arbiter.waterfill_grants` core directly.
        Every float operation replicates the scalar path's order
        exactly (sequential want-sum, raw-demand weights, freeze-order
        conservation clamp), so the result is bit-identical to
        :meth:`_solve_scalar`.
        """
        now = self.now
        running = self.running
        total_wants = 0.0
        streams = 0
        n = 0
        # Pass 1: total capped demand and stream count (the
        # oversubscription decision needs the whole picture first).
        for job in running:
            if now < job.stall_until:
                continue
            table = job._table
            d = table.demand_rows[job.block_idx][job.tiles - 1]
            cap = job.bw_cap
            w = d if cap is None else min(d, cap)
            total_wants += w
            if w > 0:
                streams += 1
            n += 1
        times: Dict[str, float] = {}
        if not n:
            return times
        # DramModel.effective_bandwidth inlined on cached constants
        # (same float expression, same result).
        effective = self._dram_bw
        if total_wants > effective and streams > 1:
            effective *= (
                1.0 - self._contention_penalty * (1.0 - 1.0 / streams)
            )
        if total_wants <= effective * (1 + _REL_TOL):
            # Undersubscribed (the common case once regulation has
            # converged): every job keeps its capped want — emit the
            # times directly, no parallel lists, no waterfill.
            for job in running:
                if now < job.stall_until:
                    continue
                table = job._table
                bi = job.block_idx
                col = job.tiles - 1
                fd = table.from_dram[bi]
                tf = table.t_full_rows[bi][col]
                if fd <= 0:
                    times[job.job_id] = tf
                else:
                    d = table.demand_rows[bi][col]
                    cap = job.bw_cap
                    share = d if cap is None else min(d, cap)
                    if share <= 0:
                        times[job.job_id] = float("inf")
                    else:
                        times[job.job_id] = max(tf, fd / share)
            return times
        # Oversubscribed: gather parallel lists and run the shared
        # water-fill core.
        jids: List[str] = []
        t_full: List[float] = []
        demands: List[float] = []
        from_dram: List[float] = []
        wants: List[float] = []
        for job in running:
            if now < job.stall_until:
                continue
            table = job._table
            bi = job.block_idx
            col = job.tiles - 1
            d = table.demand_rows[bi][col]
            cap = job.bw_cap
            jids.append(job.job_id)
            t_full.append(table.t_full_rows[bi][col])
            demands.append(d)
            from_dram.append(table.from_dram[bi])
            wants.append(d if cap is None else min(d, cap))
        shares, _ = waterfill_grants(wants, demands, effective)
        for i, jid in enumerate(jids):
            fd = from_dram[i]
            share = shares[i]
            if fd <= 0:
                times[jid] = t_full[i]
            elif share <= 0:
                times[jid] = float("inf")
            else:
                times[jid] = max(t_full[i], fd / share)
        return times

    def _next_event_dt(self) -> Optional[float]:
        """Time to the next event, or None if nothing can happen."""
        self._block_T = times = self._times_now()
        now = self.now
        inf = float("inf")
        best = inf
        have = False
        if self._pending:
            c = self._pending[0][0] - now
            if c >= 0:
                best = c
                have = True
        for job in self.running:
            if now < job.stall_until:
                c = job.stall_until - now
            else:
                T = times[job.job_id]
                if T == inf:
                    continue
                c = (1.0 - job.progress) * T
            if 0 <= c < best:
                best = c
                have = True
        if not have:
            return None
        return best

    def _step(self) -> bool:
        """One fused time step: next-event dt, time advance, progress
        accrual and completion retirement in a single pass over the
        running set — the exact composition of
        :meth:`_next_event_dt`, :meth:`_advance` (with the
        ``_MIN_DT`` clamp) and :meth:`_process_completions`, which
        stay as the documented reference primitives.

        Returns:
            False when no event can occur (the caller resolves idle
            gaps or declares deadlock).
        """
        times = self._times_now()
        now = self.now
        inf = float("inf")
        best = inf
        have = False
        pending = self._pending
        if pending:
            c = pending[0][0] - now
            if c >= 0:
                best = c
                have = True
        running = self.running
        for job in running:
            if now < job.stall_until:
                c = job.stall_until - now
            else:
                T = times[job.job_id]
                if T == inf:
                    continue
                c = (1.0 - job.progress) * T
            if 0 <= c < best:
                best = c
                have = True
        if not have:
            return False
        self._block_T = times
        dt = best if best >= _MIN_DT else _MIN_DT
        new_now = now + dt
        stall_expired = False
        completed = False
        done = 1.0 - _COMPLETION_EPS
        for job in running:
            su = job.stall_until
            if now < su:
                # A stall expiring re-activates the job: the
                # arbiter's active set changed even though no
                # allocation call ran.
                if su <= new_now:
                    stall_expired = True
                continue
            T = times[job.job_id]
            if T == inf or T <= 0:
                continue
            p = job.progress + dt / T
            if p > 1.0:
                p = 1.0
            job.progress = p
            if p >= done:
                completed = True
        self.now = new_now
        if stall_expired:
            self._bump_epoch()
        if completed:
            self._retire_completed()
        return True

    def _advance(self, dt: float) -> None:
        """Advance time; accrue progress on unstalled running jobs."""
        inf = float("inf")
        old_now = self.now
        block_T = self._block_T
        for job in self.running:
            if old_now < job.stall_until:
                continue
            T = block_T.get(job.job_id, inf)
            if T == inf or T <= 0:
                continue
            job.progress = min(1.0, job.progress + dt / T)
        self.now += dt
        for job in self.running:
            # A stall expiring re-activates the job: the arbiter's
            # active set changed even though no allocation call ran.
            if old_now < job.stall_until <= self.now:
                self._bump_epoch()
                break

    def _process_completions(self) -> None:
        """Retire completed blocks and finish jobs on their last block."""
        done = 1.0 - _COMPLETION_EPS
        for job in self.running:
            if job.progress >= done:
                self._retire_completed()
                return

    def _retire_completed(self) -> None:
        """Retire every running job whose block progress crossed the
        completion threshold (the caller established at least one
        did)."""
        done = 1.0 - _COMPLETION_EPS
        for job in list(self.running):
            if job.progress < done:
                continue
            job.block_idx += 1
            job.progress = 0.0
            self._bump_epoch()
            self._boundaries += 1
            if self.trace.enabled:
                self.trace.log(self.now, TraceEvent.BLOCK_DONE, job.job_id,
                               f"block={job.block_idx - 1}")
            if job.block_idx >= job.num_blocks:
                job.phase = JobPhase.FINISHED
                job.finished_at = self.now
                self._tiles_held -= job.tiles
                job.tiles = 0
                job.bw_cap = None
                self.running.remove(job)
                self.finished.append(job)
                self.trace.log(self.now, TraceEvent.FINISH, job.job_id)
                self.policy.on_job_finished(self, job)

    def _validate(self) -> None:
        """Invariant checks after every policy invocation.

        The full per-job sweep runs only when tile state could have
        moved since the last check: job tile counts change solely
        through engine primitives, and every one of those shifts the
        held-tiles counter or the running-set size.  Quiet events
        (caps-only or empty plans — the common case) reduce to one
        tuple compare.
        """
        state = (self._tiles_held, len(self.running))
        if state == self._validated_state:
            return
        self._validated_state = state
        held = sum(j.tiles for j in self.running)
        if held > self.soc.num_tiles:
            raise SimulationError(
                f"policy over-allocated tiles: {held} > {self.soc.num_tiles}"
            )
        if held != self._tiles_held:
            raise SimulationError(
                f"tile accounting drifted: counter {self._tiles_held}, "
                f"running jobs hold {held}"
            )
        for job in self.running:
            if job.tiles <= 0:
                raise SimulationError(
                    f"running job {job.job_id} holds no tiles"
                )


def run_simulation(
    soc: SoCConfig,
    tasks: Sequence[Task],
    policy: Policy,
    mem: Optional[MemoryHierarchy] = None,
    trace: bool = False,
    cadence: Optional[DecisionCadence] = None,
    solver: str = "kernel",
) -> SimResult:
    """Convenience wrapper: reset the policy, build and run a simulator."""
    policy.reset()
    sim = Simulator(soc, tasks, policy, mem=mem, trace=trace,
                    cadence=cadence, solver=solver)
    return sim.run()
