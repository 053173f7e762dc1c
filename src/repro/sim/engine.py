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

The epoch-horizon loop
----------------------

Each running job's block time only depends on *allocation state*: the
set of unstalled running jobs, their current blocks, tile counts and
throttle caps.  The engine maintains an **allocation epoch** counter
that every state mutation bumps (``start_job`` / ``set_tiles`` /
``preempt`` / ``stall_job`` / a controller cap change / block
retirement / stall expiry).  Between bumps every block time is fixed, so
:meth:`Simulator._advance_horizon` — the engine's only loop — solves
once per epoch (:meth:`Simulator._solve_epoch`, reading each network's
structure-of-arrays runtime table) and advances straight
to the next boundary, retiring every block that lands there in one
sweep.

Decisions
---------

The policy is consulted at every event and returns
:class:`~repro.sim.plan.AllocationPlan`\\ s that the engine's
:class:`~repro.sim.plan.AllocationController` applies atomically — an
applied plan bumps the allocation epoch, a no-op plan not at all, and
reconfiguration costs are charged centrally by the controller.  A
policy that regulates only at layer-block boundaries gates itself
on :attr:`Simulator.blocks_retired` (MoCA's round does).

The single-step oracle in :mod:`repro.sim.reference` re-derives every
block time from Algorithm 1 predictions and the validated arbiter; the
tests pin this engine bit-identical to it, and ``REPRO_CHECK=1``
spot-checks the epoch solve against it during a run.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import repro.sanitizer as sanitizer
from repro.config import SoCConfig
from repro.memory.arbiter import _REL1, waterfill_grants
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.job import Job, JobPhase, Task, TaskResult, results_from_jobs
from repro.sim.plan import EMPTY_PLAN, AllocationController
from repro.sim.policy import Policy
from repro.sim.trace import Trace, TraceEvent

_COMPLETION_EPS = 1e-9
_MIN_DT = 1e-6
_INF = float("inf")

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
        block_time_recomputes: Epoch solves (prediction + arbiter)
            the run actually performed.
        block_time_reuses: Events served by the current epoch's
            solve instead.
        decisions: Times the policy was consulted for a plan; the
            engine consults it at every event, so this equals
            ``events``.
        plans_applied: Plans that performed at least one mutation.
        plans_noop: Plans that performed none (empty or all no-op) —
            these leave the allocation epoch untouched.
        plan_actions: Total mutations applied through the
            :class:`~repro.sim.plan.AllocationController`.
    """

    policy_name: str
    results: Sequence[TaskResult]
    makespan: float
    trace: Trace
    events: int = 0
    block_time_recomputes: int = 0
    block_time_reuses: int = 0
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
    ) -> None:
        if not tasks:
            raise SimulationError("no tasks to simulate")
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate task ids")
        self.soc = soc
        self.mem = mem if mem is not None else MemoryHierarchy.from_soc(soc)
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
        self.max_events = max_events
        # Structure-of-arrays runtime tables (one per task's network,
        # memoised on the NetworkCost so shared networks build once):
        # every (block, tiles) point the run can ever evaluate, built
        # through BlockCost.predict, plus the remaining-latency
        # suffixes.  The epoch solve and the policies read these
        # instead of calling predict per event.
        dram_bw = self.mem.dram_bandwidth
        l2_bw = self.mem.l2_bandwidth
        for job in self.jobs.values():
            job.table = job.task.cost.runtime_table(
                dram_bw, l2_bw, soc.overlap_f, soc.num_tiles
            )
        # Constants the epoch solve would otherwise re-derive through
        # property chains.
        self._dram_bw = dram_bw
        self._contention_penalty = self.mem.dram.contention_penalty
        self._alloc_epoch = 0
        self._validated_state = (-1, -1)
        self._solve_checks = 0
        self.events = 0
        self.block_time_recomputes = 0
        self.block_time_reuses = 0
        # Declarative decision machinery (see repro.sim.plan): the
        # controller applies the AllocationPlan the policy returns at
        # every event.
        self.controller = AllocationController(self)
        self._blocks_retired = 0

    # ------------------------------------------------------------------
    # Policy-facing API
    # ------------------------------------------------------------------

    @property
    def free_tiles(self) -> int:
        """Tiles not currently held by any running job.

        Maintained as a running counter (policies probe this several
        times per event; summing the running list was measurable).
        :meth:`validate` cross-checks the counter against the ground
        truth every event.
        """
        return self.soc.num_tiles - self._tiles_held

    @property
    def has_pending_arrivals(self) -> bool:
        """Whether any task has yet to be dispatched (read-only)."""
        return bool(self._pending)

    @property
    def next_arrival(self) -> float:
        """Dispatch cycle of the earliest undispatched task, or
        ``inf`` once every task has arrived (read-only)."""
        pending = self._pending
        return pending[0][0] if pending else _INF

    @property
    def blocks_retired(self) -> int:
        """Blocks retired so far across all jobs (read-only).  Only
        block retirements move it, so an unchanged value means no
        running job has entered a new block."""
        return self._blocks_retired

    def retire_block(self, job: Job) -> None:
        """Retire ``job``'s current block at ``now``; its last block
        finishes the job and notifies the policy.  Both the engine
        loop and the reference loop retire through here, in running
        order."""
        job.block_idx += 1
        job.progress = 0.0
        self._alloc_epoch += 1
        self._blocks_retired += 1
        trace = self.trace
        if trace.enabled:
            trace.log(self.now, TraceEvent.BLOCK_DONE, job.job_id,
                      f"block={job.block_idx - 1}")
        if job.block_idx >= len(job.task.cost.blocks):
            job.phase = JobPhase.FINISHED
            job.finished_at = self.now
            self._tiles_held -= job.tiles
            job.tiles = 0
            job.bw_cap = None
            self.running.remove(job)
            self.finished.append(job)
            trace.log(self.now, TraceEvent.FINISH, job.job_id)
            self.policy.on_job_finished(self, job)

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
        self.bump_epoch()
        self.trace.log(self.now, TraceEvent.START, job.job_id,
                       f"tiles={tiles}")

    def set_tiles(self, job: Job, tiles: int) -> bool:
        """Repartition a running job's tiles.

        The compute-migration stall is not charged here: the
        :class:`~repro.sim.plan.AllocationController` accounts it
        centrally.

        Returns:
            Whether the tile count actually changed — the controller's
            single source of no-op detection.
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
        self.bump_epoch()
        self.trace.log(self.now, TraceEvent.TILE_REPARTITION, job.job_id,
                       f"tiles={tiles}")
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
        self.bump_epoch()
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
            self.bump_epoch()

    # ------------------------------------------------------------------
    # Allocation-epoch bookkeeping
    # ------------------------------------------------------------------

    def bump_epoch(self) -> None:
        """Invalidate the epoch solve.  Every allocation mutation calls
        this; the :class:`~repro.sim.plan.AllocationController` calls
        it for the cap changes it writes itself.  The engine loop
        compares the epoch once per event, so any number of bumps
        between two solves costs one re-solve."""
        self._alloc_epoch += 1

    # ------------------------------------------------------------------
    # Engine core
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Run to completion and return per-task results."""
        self._advance_horizon()
        return self.result()

    def result(self) -> SimResult:
        """Package a finished run (shared with the reference loop).

        Under ``REPRO_CHECK=1`` every task's latency is checked
        against its isolated latency (no co-runner can make a task
        faster than running alone)."""
        makespan = max((j.finished_at or 0.0) for j in self.finished)
        results = results_from_jobs(self.finished)
        if sanitizer.enabled:
            sanitizer.check_isolated_floor(results)
        return SimResult(
            policy_name=self.policy.name,
            results=results,
            makespan=makespan,
            trace=self.trace,
            events=self.events,
            block_time_recomputes=self.block_time_recomputes,
            block_time_reuses=self.block_time_reuses,
            decisions=self.events,
            plans_applied=self.controller.plans_applied,
            plans_noop=self.controller.plans_noop,
            plan_actions=self.controller.actions_applied,
        )

    def _advance_horizon(self) -> None:
        """The engine loop.

        Between allocation-epoch bumps every live job's block
        schedule is fixed, so the loop keeps the solve state in the
        engine-owned job slots (``Job.solve_row`` table rows,
        ``Job.solve_time`` block times) and locals, and advances
        horizon by horizon: each iteration finds the next
        *epoch-relevant boundary* — the earliest of next arrival,
        stall expiry, and block completion under the current
        allocation — advances straight to it, and retires every
        block that lands there in one sweep.

        A policy implementing ``kernel_decide_apply`` runs its
        decision rounds through that fused hook instead of
        :meth:`~repro.sim.policy.Policy.decide` plus a plan apply.

        Every float operation replicates the reference loop's
        sequence (:mod:`repro.sim.reference`) — the dt scan, progress
        accrual and retirement order are verbatim — so results and
        makespans are bit-identical to it (property-pinned in
        tests/test_kernel.py; goldens unchanged).  Under
        ``REPRO_CHECK=1`` the fused hook is bypassed (every decision
        round then goes through the validating plan constructor) and
        the epoch solve is spot-checked against the reference solve
        on the first epoch and every 64th.
        """
        policy = self.policy
        san_on = sanitizer.enabled
        if san_on:
            from repro.sim import reference
        fused = None if san_on else policy.kernel_decide_apply
        decide = policy.decide
        controller = self.controller
        apply_plan = controller.apply
        solve = self._solve_epoch
        retire = self.retire_block
        jobs_total = len(self.jobs)
        finished = self.finished
        running = self.running
        max_events = self.max_events
        eps = _COMPLETION_EPS
        done_thr = 1.0 - eps
        min_dt = _MIN_DT
        inf = _INF
        events = self.events
        recomputes = self.block_time_recomputes
        reuses = self.block_time_reuses
        noops = 0
        checks = self._solve_checks
        solved_epoch = -1
        # The running list partitioned by stalledness at the last
        # solve.  Valid until the next epoch bump: every mutation that
        # moves a job between the partitions (stall expiry, new stall,
        # retire, admission, preemption) bumps the allocation epoch,
        # which forces a solve that rebuilds both lists.  ``act``
        # preserves running order, so the completion sweep retires
        # blocks in the reference order.
        act: List[Job] = []
        stl: List[Job] = []
        dispatch = self.dispatch_arrivals
        next_arrival = self.next_arrival
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
                    next_arrival = self.next_arrival
                if fused is not None:
                    fused(self)
                else:
                    plan = decide(self)
                    if plan is EMPTY_PLAN:
                        noops += 1
                    else:
                        apply_plan(plan)
                vstate = self._validated_state
                if (
                    vstate[0] != self._tiles_held
                    or vstate[1] != len(running)
                ):
                    self.validate()
                # ---- next-boundary scan ----------------------------
                best = inf
                if next_arrival != inf:
                    c = next_arrival - now
                    if c >= 0:
                        best = c
                epoch = self._alloc_epoch
                if epoch != solved_epoch:
                    recomputes += 1
                    solved_epoch = epoch
                    act, stl, best = solve(now, best)
                    if san_on:
                        checks += 1
                        if checks == 1 or checks % 64 == 0:
                            sanitizer.check_block_times(
                                {j.job_id: j.solve_time for j in act},
                                reference.solve_block_times(self),
                                now,
                            )
                else:
                    reuses += 1
                    for job in stl:
                        c = job.stall_until - now
                        if c < best:
                            best = c
                    for job in act:
                        T = job.solve_time
                        if T != inf:
                            c = (1.0 - job.progress) * T
                            if 0 <= c < best:
                                best = c
                if best == inf:
                    if next_arrival != inf:
                        # Idle gap: jump to the next arrival.
                        self.now = next_arrival
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
                    T = job.solve_time
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
                    # in one sweep, in running order.
                    for job in completed:
                        retire(job)
        finally:
            self.events = events
            self.block_time_recomputes = recomputes
            self.block_time_reuses = reuses
            if san_on:
                self._solve_checks = checks
            controller.plans_noop += noops

    def _solve_epoch(
        self, now: float, best: float
    ) -> Tuple[List[Job], List[Job], float]:
        """Solve every running job's block time for the current
        allocation epoch.

        One pass over the running list splits it into active and
        stalled jobs and refreshes each active job's table row
        (``Job.solve_row``, re-read only when its ``(block, tiles)`` key
        moved); the arbiter then grants DRAM shares — the capped want
        when the channel is undersubscribed, the shared water-fill
        core otherwise — and each active job's time lands in
        ``Job.solve_time``.  Every float operation replicates
        :func:`repro.sim.reference.solve_block_times` exactly
        (sequential want-sum, raw-demand weights, freeze-order
        conservation clamp), so the times are bit-identical to it.

        Returns:
            ``(active, stalled, best)``: the active jobs in running
            order, the stalled ones, and ``best`` folded with every
            stall expiry and block completion time from ``now``.
        """
        inf = _INF
        total_wants = 0.0
        streams = 0
        act: List[Job] = []
        stl: List[Job] = []
        wl: List[float] = []
        for job in self.running:
            su = job.stall_until
            if now < su:
                stl.append(job)
                c = su - now
                if c < best:
                    best = c
                continue
            bi = job.block_idx
            tiles = job.tiles
            v = job.solve_row
            if v is None or v[0] != bi or v[1] != tiles:
                table = job.table
                col = tiles - 1
                v = (
                    bi, tiles,
                    table.t_full_rows[bi][col],
                    table.from_dram[bi],
                    table.demand_rows[bi][col],
                )
                job.solve_row = v
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
        if not act:
            return act, stl, best
        # DramModel.effective_bandwidth inlined on cached constants
        # (same float expression, same result).
        effective = self._dram_bw
        if total_wants > effective and streams > 1:
            effective *= (
                1.0 - self._contention_penalty * (1.0 - 1.0 / streams)
            )
        if total_wants <= effective * _REL1:
            # Undersubscribed: every job keeps its capped want.
            shares = wl
        else:
            shares, _ = waterfill_grants(
                wl, [j.solve_row[4] for j in act], effective
            )
        for i, job in enumerate(act):
            v = job.solve_row
            fd = v[3]
            if fd <= 0:
                T = v[2]
            else:
                share = shares[i]
                if share <= 0:
                    T = inf
                else:
                    fdd = fd / share
                    tf = v[2]
                    T = tf if tf > fdd else fdd
            job.solve_time = T
            if T != inf:
                c = (1.0 - job.progress) * T
                if 0 <= c < best:
                    best = c
        return act, stl, best

    def dispatch_arrivals(self) -> None:
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

    def validate(self) -> None:
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
) -> SimResult:
    """Convenience wrapper: reset the policy, build and run a simulator."""
    policy.reset()
    sim = Simulator(soc, tasks, policy, mem=mem, trace=trace)
    return sim.run()
