"""The full MoCA system as a simulator policy.

Wires the three MoCA components (Figure 3) onto the simulation engine:

- **Scheduler** (Algorithm 3): at every scheduling opportunity, scores
  waiting tasks by priority + waiting slowdown, flags memory-intensive
  ones, and admits a balanced co-running group onto fixed-size tile
  allocations.
- **Runtime** (Algorithm 2): at every block boundary of every running
  job, re-estimates demand and slack, detects contention against the
  scoreboard, and re-derives the job's bandwidth allocation.
- **Hardware** (Section III-B): modelled by the per-job bandwidth cap
  the engine's arbiter enforces; each reconfiguration costs the 5-10
  cycle DMA issue-rate update, *not* a thread migration.

Compute repartitioning exists but is deliberately rare (Section III-C:
"MoCA's runtime triggers the compute resource partition much less
frequently to avoid its high overhead"): free tiles are granted to a
running job only when it is predicted to miss its SLA and the
predicted benefit clearly exceeds the migration stall.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.runtime import MoCARuntime
from repro.core.scheduler import MoCAScheduler, SchedulableTask, SchedulerConfig
from repro.memory.arbiter import _REL_TOL, waterfill_grants
from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import Policy

#: Algorithm 3's admission slot: tiles granted to each admitted task.
_TILES_PER_TASK = SchedulerConfig().tiles_per_task

#: Shared empty admitted-tiles overlay for rounds with no admissions
#: (the steady state); read-only by contract.
_NO_TILES: Dict[str, int] = {}

#: One round's decisions: admissions, bandwidth caps, tile targets
#: (each as in :class:`~repro.sim.plan.AllocationPlan`).
_Round = Tuple[
    Tuple[Tuple[str, int], ...],
    Tuple[Tuple[str, Optional[float]], ...],
    Tuple[Tuple[str, int], ...],
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job


class MoCAPolicy(Policy):
    """Memory-centric adaptive multi-tenancy (the paper's system).

    One decision round (:meth:`_round`) runs Algorithm 3's
    admissions, Algorithm 2's bandwidth regulation and the rare
    compute repartition, always with the default
    :class:`~repro.core.scheduler.SchedulerConfig`.  The engine
    drives it through :meth:`kernel_decide_apply`; :meth:`decide`
    returns the same decisions as one plan.  Every Algorithm 1 figure
    the round needs (block demand, ``remain_prediction``) is read off
    the job's :class:`~repro.core.latency.RuntimeTable`.
    """

    name = "moca"

    #: Skip whole decision rounds while the engine's retired-blocks
    #: counter is unchanged (class attribute so comparators can
    #: shadow it with False to model the pre-fast-path system; the
    #: False sweep is the test oracle for the skip).  The skip is
    #: exact: Algorithm 2 runs once per (layer block, co-runner
    #: epoch) key, and with MoCA never preempting, the keys only move
    #: through admissions (checked separately), block retirements and
    #: finishes — each of which ticks the counter.  An unchanged
    #: counter with no admissions planned means the full regulation
    #: sweep would skip every co-runner and emit no caps.
    fast_path = True

    def __init__(self) -> None:
        self._runtime: Optional[MoCARuntime] = None
        self._scheduler: Optional[MoCAScheduler] = None
        self._sched_cache: Dict[str, SchedulableTask] = {}
        self._regulated_block: Dict[str, tuple] = {}
        self._epoch = 0
        self._seen_boundaries = -1

    # ------------------------------------------------------------------

    def _lazy_init(self, sim: "Simulator") -> None:
        self._runtime = MoCARuntime(sim.soc, sim.mem)
        self._scheduler = MoCAScheduler(sim.mem.dram_bandwidth)

    def _round(self, sim: "Simulator") -> _Round:
        """One MoCA decision round against the *planned*
        post-admission state: admissions (Algorithm 3), bandwidth
        caps (Algorithm 2) and the rare compute repartition.  Reads
        the engine without mutating it.

        Most events change nothing the regulation depends on; the
        fast path detects that through the engine's retired-blocks
        counter (see :attr:`fast_path`) and skips the regulation
        sweep — whose per-job keys would all still match — while the
        repartition check still runs against the running set."""
        if self._runtime is None:
            self._lazy_init(sim)
        free = sim.free_tiles
        planned_running = sim.running
        admitted_tiles = _NO_TILES
        admissions: Tuple[Tuple[str, int], ...] = ()
        if sim.ready and free >= _TILES_PER_TASK:
            admissions = tuple(self._plan_admissions(sim))
        if admissions:
            # The planned running set: incumbents in engine order,
            # then the admitted jobs in admission order — exactly the
            # running list the engine will hold once the plan is
            # applied.  The co-runner set changed, so every running
            # app re-runs Algorithm 2.
            by_id = {j.job_id: j for j in sim.ready}
            planned_running = planned_running + [
                by_id[jid] for jid, _ in admissions
            ]
            admitted_tiles = dict(admissions)
            for _, t in admissions:
                free -= t
            self._epoch += 1
        # A co-runner entering a new layer block changes the demand
        # picture (bandwidth appetite is per block), so a moved
        # retired-blocks counter bumps the regulation epoch.  MoCA
        # never preempts, so the planned running set only shifts
        # through admissions (bumped above), block retirements and
        # finishes — and the latter two each tick the counter.
        boundaries = sim.blocks_retired
        moved = boundaries != self._seen_boundaries
        if moved:
            self._seen_boundaries = boundaries
            self._epoch += 1
        caps: Tuple[Tuple[str, Optional[float]], ...] = ()
        if moved or admissions or not self.fast_path:
            caps = self._plan_regulation(
                sim, planned_running, admitted_tiles
            )
        tiles: Tuple[Tuple[str, int], ...] = ()
        if free > 0 and len(sim.ready) == len(admissions):
            tiles = self._plan_compute_repartition(
                sim, planned_running, admitted_tiles, free
            )
        return admissions, caps, tiles

    def decide(self, sim: "Simulator") -> AllocationPlan:
        """One MoCA decision round (:meth:`_round`) as a single
        declarative plan, applied atomically by the engine's
        controller."""
        admissions, caps, tiles = self._round(sim)
        if not admissions and not caps and not tiles:
            return EMPTY_PLAN
        return AllocationPlan(
            admissions=admissions, tiles=tiles, bw_caps=caps
        )

    def kernel_decide_apply(self, sim: "Simulator") -> None:
        """Fused decision round for the engine loop.

        Makes exactly the decisions :meth:`decide` would make, and
        counts them as the one plan :meth:`decide` would return.
        Rounds that admit or retile take the plan seam verbatim;
        caps-only (and empty) rounds go through
        :meth:`~repro.sim.plan.AllocationController.apply_caps`
        without a plan object.  Never called under ``REPRO_CHECK=1``
        (the engine drops to decide()/apply, so every round goes
        through the validating plan constructor).
        """
        admissions, caps, tiles = self._round(sim)
        if admissions or tiles:
            sim.controller.apply(AllocationPlan(
                admissions=admissions, tiles=tiles, bw_caps=caps
            ))
        else:
            sim.controller.apply_caps(caps)

    # -- Algorithm 3: admission -----------------------------------------

    def _schedulable(self, sim: "Simulator", job: "Job") -> SchedulableTask:
        """The scheduler's task-queue record for a waiting job.

        Cached per job for the whole wait: every static field is
        fixed at dispatch, and the scheduler overwrites the mutable
        ``score`` / ``mem_intensive`` fields at the start of each
        round anyway.  (MoCA never preempts, so a waiting job's
        ``block_idx`` is pinned at its first-seen value.)
        """
        entry = self._sched_cache.get(job.job_id)
        if entry is None:
            table = job.table
            bi = job.block_idx
            est = table.remain_cols[_TILES_PER_TASK - 1][bi]
            total_dram = sum(table.from_dram[bi:])
            entry = SchedulableTask(
                task_id=job.job_id,
                dispatched_at=job.task.dispatch_cycle,
                user_priority=job.task.priority,
                target_latency=job.task.qos_target_cycles,
                estimated_time=max(est, 1.0),
                est_avg_bw=total_dram / est if est > 0 else 0.0,
            )
            self._sched_cache[job.job_id] = entry
        return entry

    def _plan_admissions(
        self, sim: "Simulator"
    ) -> List[Tuple[str, int]]:
        """Algorithm 3's admissions as ``(job_id, tiles)`` pairs
        (called only with a non-empty ready queue)."""
        assert self._scheduler is not None
        queue = [self._schedulable(sim, job) for job in sim.ready]
        selected = self._scheduler.select(sim.now, queue, sim.free_tiles)
        if not selected and not sim.running and not sim.has_pending_arrivals:
            # Nothing runs and nothing is left to arrive, so the clock
            # cannot advance and no score can rise past the threshold:
            # waiting would deadlock.  Admit the top-ranked task anyway.
            selected = [self._scheduler.top_ranked(sim.now, queue)]
        base = _TILES_PER_TASK
        free = sim.free_tiles
        admissions: List[Tuple[str, int]] = []
        for i, entry in enumerate(selected):
            # Admission-time compute sizing (free — no migration):
            # when the queue is drained and tiles are plentiful, grant
            # admitted jobs a larger share instead of leaving tiles
            # idle; under load everyone gets the base slot.
            remaining_admits = len(selected) - i
            backlog = len(queue) - len(selected)
            if backlog > 0:
                tiles = base
            else:
                tiles = min(
                    2 * base, max(base, free // remaining_admits)
                )
            tiles = min(tiles, free)
            admissions.append((entry.task_id, tiles))
            free -= tiles
        return admissions

    # -- Algorithm 2: bandwidth regulation --------------------------------

    def _plan_regulation(
        self,
        sim: "Simulator",
        planned_running: List["Job"],
        admitted_tiles: Dict[str, int],
    ) -> Tuple[Tuple[str, Optional[float]], ...]:
        """Algorithm 2 over the planned running set; returns the
        ``bw_caps`` overlay.  Jobs whose regulation key is unchanged
        get no entry (their cap is left alone), and neither do jobs
        whose derived cap restates the live one.  ``admitted_tiles``
        overlays this plan's admissions onto the live tile counts.

        The round is **one sweep** over the jobs: demand and remain
        read off the job's runtime table, dynamic scoring,
        contention detection against the scoreboard's columns,
        publication and the cap diff.  A sequence of
        :meth:`~repro.core.runtime.MoCARuntime.update_app` calls is
        the validated reference for this sweep: the co-runner demand
        sum and the water-fill inputs walk the scoreboard in slot
        order, and each job sees its predecessors' fresh
        publications, so the overlay and the published state are
        bit-identical to it (pinned in ``tests/test_vectorized.py``).
        """
        rt = self._runtime
        assert rt is not None
        board = rt.scoreboard
        demand_arr = board.demand_list
        score_arr = board.score_list
        slot_of = board.slot_of
        publish = board.publish
        dram_bw = rt.dram_bw
        dram_bw_tol = dram_bw * (1 + _REL_TOL)
        overflow_cut = rt.overflow_cut
        min_bw_rate = rt.min_bw_rate
        urgency_cap = rt.urgency_cap
        now = sim.now
        epoch = self._epoch
        # With the fast path on, a round only reaches this sweep after
        # bumping the co-runner epoch (admissions, boundary change —
        # the finish hook bumps too), so every job's ``(block,
        # epoch)`` key is new by construction.  With it off, rounds
        # re-enter with an unchanged epoch and need the key skip to
        # avoid re-extending reconfiguration stalls.
        track_keys = not self.fast_path
        regulated = self._regulated_block
        caps: List[Tuple[str, Optional[float]]] = []
        for job in planned_running:
            # Algorithm 2 runs once per (layer block, co-runner epoch):
            # at every block boundary, plus once more whenever the
            # running set changed mid-block.  Re-running on every event
            # would re-extend the reconfiguration stall forever.
            jid = job.job_id
            bi = job.block_idx
            if track_keys:
                key = (bi, epoch)
                if regulated.get(jid) == key:
                    continue
                regulated[jid] = key
            if admitted_tiles:
                num_tiles = admitted_tiles.get(jid, job.tiles)
            else:
                num_tiles = job.tiles
            # Lines 3-4: demand straight off the runtime table (the
            # float bw_demand would return).
            table = job.table
            demand = table.demand_rows[bi][num_tiles - 1]
            # Line 6: dynamic priority score (dynamic_score inlined;
            # the table's remain_prediction is never negative).
            task = job.task
            slack = task.deadline - now
            if slack <= 0:
                score = task.priority + urgency_cap
            else:
                u = table.remain_cols[num_tiles - 1][bi] / slack
                score = task.priority + (
                    u if u < urgency_cap else urgency_cap
                )
            # Lines 9-14: co-runner demand sum in slot order, exactly
            # as sum(other_demands.values()) does.
            i_self = slot_of.get(jid, -1)
            other_bw = 0.0
            for i in range(len(demand_arr)):
                if i != i_self:
                    other_bw += demand_arr[i]
            if demand + other_bw - dram_bw > overflow_cut and demand > 0:
                # Contention (lines 16-18).  ``other_bw + demand`` is
                # the same float sequence the reference's sum
                # produces (same addends, same order), so the
                # early-exit threshold is bit-identical.  Only this
                # app's grant is consumed, and it sits last in the
                # water-fill inputs (co-runners in slot order, this
                # app last, uncapped wants = demands, scores as
                # weights with the denormal filter).
                if other_bw + demand <= dram_bw_tol:
                    share = demand
                else:
                    if i_self < 0:
                        wants = demand_arr.copy()
                        weights = score_arr.copy()
                    else:
                        wants = (
                            demand_arr[:i_self]
                            + demand_arr[i_self + 1:]
                        )
                        weights = (
                            score_arr[:i_self]
                            + score_arr[i_self + 1:]
                        )
                    wants.append(demand)
                    weights.append(score)
                    share = waterfill_grants(
                        wants,
                        [w if w > 1e-9 else 0.0 for w in weights],
                        dram_bw,
                    )[0][-1]
                g = share if share > min_bw_rate else min_bw_rate
                bw_rate = g if g < demand else demand
                cap = bw_rate
            else:
                bw_rate = demand
                cap = None
            # Publish (line 25), so successor jobs see this entry.
            publish(jid, bw_rate, demand, score)
            old = job.bw_cap
            if old == cap or (
                old is not None and cap is not None
                and abs(old - cap) < 1e-9
            ):
                # Restating the live cap: the engine would no-op it
                # anyway (same tolerance), so the overlay omits it.
                continue
            caps.append((jid, cap))
        return tuple(caps)

    # -- Rare compute repartition -----------------------------------------

    def _plan_compute_repartition(
        self,
        sim: "Simulator",
        planned_running: List["Job"],
        admitted_tiles: Dict[str, int],
        extra: int,
    ) -> Tuple[Tuple[str, int], ...]:
        """Grant ``extra`` idle tiles to a job predicted to miss its
        SLA, only when the predicted gain clearly beats the migration
        stall.  Called only with idle tiles and an empty post-round
        ready queue."""
        best_job = None
        best_gain = 0.0
        for job in planned_running:
            if not job.at_block_boundary:
                continue
            tiles = admitted_tiles.get(job.job_id, job.tiles)
            remain_cols = job.table.remain_cols
            remain_now = remain_cols[tiles - 1][job.block_idx]
            slack = job.task.deadline - sim.now
            if remain_now <= slack:
                continue  # on track; leave it alone
            remain_more = remain_cols[tiles + extra - 1][job.block_idx]
            gain = remain_now - remain_more
            if gain > best_gain:
                best_gain = gain
                best_job = job
        if (
            best_job is not None
            and best_gain > 2.0 * self.compute_reconfig_cycles
        ):
            target = admitted_tiles.get(
                best_job.job_id, best_job.tiles
            ) + extra
            return ((best_job.job_id, target),)
        return ()

    # ------------------------------------------------------------------

    def on_job_finished(self, sim: "Simulator", job: "Job") -> None:
        """Retire the job from the runtime scoreboard."""
        if self._runtime is not None:
            self._runtime.retire_app(job.job_id)
        self._sched_cache.pop(job.job_id, None)
        self._regulated_block.pop(job.job_id, None)
        self._epoch += 1

    def reset(self) -> None:
        """Clear all per-simulation state."""
        self._runtime = None
        self._scheduler = None
        self._sched_cache.clear()
        self._regulated_block.clear()
        self._epoch = 0
        self._seen_boundaries = -1
