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

from repro.core.prediction import RemainingPrediction
from repro.core.runtime import MoCARuntime
from repro.core.scheduler import MoCAScheduler, SchedulableTask, SchedulerConfig
from repro.core.scoreboard import ScoreboardEntry
from repro.memory.arbiter import _REL_TOL, waterfill_grant_last
from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import Policy

#: Shared empty admitted-tiles overlay for regulation rounds with no
#: admissions (the fused hook's steady state); read-only by contract.
_NO_TILES: Dict[str, int] = {}

#: Bound on the per-job suffix-prediction and regulation-item caches.
#: Entries are pure functions of the job's (block, tiles) state, so
#: evicting one can never change a decision — a re-probed job
#: recomputes identical values (identity-pinned eviction).  Jobs
#: normally vacate their entries at completion; the cap is the
#: backstop for long continuous-style runs where completion hooks
#: may lag far behind admission churn.
_JOB_CACHE_CAP = 1024

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job


class MoCAPolicy(Policy):
    """Memory-centric adaptive multi-tenancy (the paper's system).

    Attributes:
        scheduler_config: Algorithm 3 tunables.
        enable_compute_repartition: Allow the rare tile regrant for
            SLA-critical jobs (on by default; the ablation benchmark
            turns it off).
    """

    name = "moca"

    #: Skip whole decision rounds while the engine's retired-blocks
    #: counter is unchanged (class attribute so benchmark comparators
    #: can shadow it with False to model the pre-fast-path system).
    #: The skip is exact: Algorithm 2 runs once per (layer block,
    #: co-runner epoch) key, and with MoCA never preempting, the keys
    #: only move through admissions (checked separately), block
    #: retirements and finishes — each of which ticks the counter.
    #: An unchanged counter with no admissions planned means the full
    #: regulation sweep would skip every co-runner and emit the same
    #: empty overlay.
    fast_path = True

    def __init__(
        self,
        scheduler_config: Optional[SchedulerConfig] = None,
        enable_compute_repartition: bool = True,
    ) -> None:
        self.scheduler_config = (
            scheduler_config if scheduler_config is not None
            else SchedulerConfig()
        )
        self.enable_compute_repartition = enable_compute_repartition
        # The admission slot size, probed once per decision round on
        # the fused hook (scheduler_config is fixed at construction).
        self._tiles_per_task = self.scheduler_config.tiles_per_task
        self._runtime: Optional[MoCARuntime] = None
        self._scheduler: Optional[MoCAScheduler] = None
        self._predictor: Optional[RemainingPrediction] = None
        self._sched_cache: Dict[str, SchedulableTask] = {}
        self._regulated_block: Dict[str, tuple] = {}
        #: jid -> (num_tiles, suffix list) — the predictor's suffix-sum
        #: list pinned per job so each regulation item is a plain list
        #: index instead of a keyed cache probe.  Invalidated when the
        #: job's tile count changes (repartition/admission overlay).
        self._suffix_cache: Dict[str, tuple] = {}
        #: jid -> (block_idx, num_tiles, demand, remain) — the
        #: regulation item's table-derived tail, refreshed only when
        #: the job's (block, tiles) key moves; co-runner epoch bumps
        #: re-regulate the same block several rounds in a row.
        self._item_cache: Dict[str, tuple] = {}
        #: Persistent scoreboard mirror in publication order —
        #: ``(entries, ent_arr, demand_arr, score_arr, idx_of)`` —
        #: kept in lockstep with every publication so the regulation
        #: sweep's co-runner reads are plain list slots without a
        #: per-round snapshot.  Dropped to None whenever the
        #: scoreboard changes outside the sweep (retire, reset); the
        #: leading ``entries`` reference pins the mirror to one
        #: scoreboard instance.
        self._sb_mirror: Optional[tuple] = None
        #: Regulation-sweep constant bundle, built by :meth:`_lazy_init`.
        self._reg_consts: Optional[tuple] = None
        self._epoch = 0
        self._seen_boundaries = -1

    # ------------------------------------------------------------------

    def _lazy_init(self, sim: "Simulator") -> None:
        if self._runtime is None:
            rt = MoCARuntime(sim.soc, sim.mem)
            self._runtime = rt
            self._scheduler = MoCAScheduler(
                sim.mem.dram_bandwidth, self.scheduler_config
            )
            self._predictor = RemainingPrediction(sim.soc, sim.mem)
            # Regulation-sweep constants (all fixed for the runtime's
            # lifetime; the scoreboard's entry dict is mutated in
            # place, never replaced).  ``dram_bw * (1 + _REL_TOL)`` is
            # the early-exit threshold the sweep previously derived
            # per round — the same float by construction.
            self._reg_consts = (
                rt.scoreboard.entries(),
                rt._dram_bw,
                rt._dram_bw * (1 + _REL_TOL),
                rt._overflow_cut,
                rt.min_bw_rate,
                rt.urgency_cap,
                self._predictor.suffix,
            )

    def decide(self, sim: "Simulator") -> AllocationPlan:
        """One MoCA decision round as a single declarative plan:
        admissions (Algorithm 3), bandwidth regulation (Algorithm 2)
        and the rare compute repartition — computed against the
        *planned* post-admission state, applied atomically by the
        engine's controller.

        Most events change nothing the regulation depends on; the
        fast path detects that via the engine's retired-blocks
        counter (see :attr:`fast_path`) and skips the whole
        regulation sweep — whose per-job keys would all still match —
        while the repartition check below still runs against the live
        running set either way."""
        if self._runtime is None:
            self._lazy_init(sim)
        if sim.ready and sim.free_tiles >= self.scheduler_config.tiles_per_task:
            admissions = self._plan_admissions(sim)
        else:
            # No tile budget for even one slot (or nothing waiting):
            # Algorithm 3 would select nobody; skip building the
            # schedulable queue at all.
            admissions = []
        boundaries = sim._boundaries
        if (
            not admissions
            and self.fast_path
            and boundaries == self._seen_boundaries
        ):
            # Unchanged retired-blocks counter ⇒ unchanged running set
            # and block indices ⇒ every job's regulation key still
            # matches: Algorithm 2 would skip every co-runner.
            planned_running = sim.running
            admitted_tiles: Dict[str, int] = {}
            bw_caps: Tuple[Tuple[str, Optional[float]], ...] = ()
        else:
            if admissions:
                # The planned running set: incumbents in engine order,
                # then the admitted jobs in admission order — exactly
                # the running list the engine will hold once the plan
                # is applied.  The co-runner set changed, so every
                # running app re-runs Algorithm 2 at its next
                # opportunity.
                by_id = {j.job_id: j for j in sim.ready}
                planned_running = list(sim.running) + [
                    by_id[jid] for jid, _ in admissions
                ]
                admitted_tiles = dict(admissions)
                self._epoch += 1
            else:
                # Read the live running list in place, no copies.
                planned_running = sim.running
                admitted_tiles = {}
            # The demand picture changes whenever any co-runner enters
            # a new layer block (its bandwidth appetite is per-block);
            # bump the regulation epoch so every running app re-runs
            # Algorithm 2.  The engine's retired-blocks counter is an
            # exact change detector for the (job, block) signature
            # here: MoCA never preempts, so the planned running set
            # only shifts through admissions (the epoch bump above),
            # block retirements, and finishes — and the latter two
            # each tick the counter.
            if boundaries != self._seen_boundaries:
                self._seen_boundaries = boundaries
                self._epoch += 1
            bw_caps = self._plan_regulation(
                sim, planned_running, admitted_tiles
            )
        tiles: Tuple[Tuple[str, int], ...] = ()
        if self.enable_compute_repartition:
            free_after = sim.free_tiles
            if admissions:
                for _, t in admissions:
                    free_after -= t
            ready_after = len(sim.ready) > len(admissions)
            if free_after > 0 and not ready_after:
                tiles = self._plan_compute_repartition(
                    sim, planned_running, admitted_tiles, free_after,
                    ready_after,
                )
        if not admissions and not bw_caps and not tiles:
            return EMPTY_PLAN
        # Built from live ready/running jobs with unique ids by
        # construction: the trusted constructor skips re-validation.
        return AllocationPlan.trusted(
            admissions=tuple(admissions), tiles=tiles, bw_caps=bw_caps
        )

    # -- Fused engine hook ----------------------------------------------

    def kernel_decide_apply(self, sim: "Simulator") -> None:
        """Fused decision round for the engine loop.

        Makes exactly the decisions :meth:`decide` would make, but
        applies the caps-only steady state through
        :meth:`~repro.sim.plan.AllocationController.apply_caps`
        instead of round-tripping an :class:`AllocationPlan`.  Rounds
        that can admit take the plan seam verbatim; the rare compute
        repartition still rides a plan, applied after the caps
        (retiles read nothing the caps change, and stall extensions
        commute).  Never called under ``REPRO_CHECK=1`` (the engine
        drops to decide()/apply so the sanitizer re-validates every
        trusted plan).
        """
        ctrl = sim.controller
        if self._runtime is None:
            self._lazy_init(sim)
        free = sim.free_tiles
        if sim.ready and free >= self._tiles_per_task:
            # Admission rounds (rare): the plan seam verbatim.
            ctrl.apply(self.decide(sim))
            return
        boundaries = sim._boundaries
        if self.fast_path and boundaries == self._seen_boundaries:
            # Unchanged retired-blocks counter ⇒ the regulation sweep
            # would skip every co-runner (see decide()).
            caps: Tuple[Tuple[str, Optional[float]], ...] = ()
        else:
            if boundaries != self._seen_boundaries:
                self._seen_boundaries = boundaries
                self._epoch += 1
            caps = self._plan_regulation(sim, sim.running, _NO_TILES)
        tiles: Tuple[Tuple[str, int], ...] = ()
        if self.enable_compute_repartition and free > 0 and not sim.ready:
            tiles = self._plan_compute_repartition(
                sim, sim.running, _NO_TILES, free, False
            )
        if caps or not tiles:
            ctrl.apply_caps(caps)
        if tiles:
            ctrl.apply(AllocationPlan.trusted(tiles=tiles))

    # -- Algorithm 3: admission -----------------------------------------

    def _schedulable(self, sim: "Simulator", job: "Job") -> SchedulableTask:
        """The scheduler's task-queue record for a waiting job.

        Cached per job for the whole wait: every static field is
        fixed at dispatch, and the scheduler overwrites the mutable
        ``score`` / ``mem_intensive`` fields at the start of each
        round anyway.  (MoCA never preempts, so a waiting job's
        ``block_idx`` is pinned at its first-seen value.)
        """
        assert self._predictor is not None
        entry = self._sched_cache.get(job.job_id)
        if entry is None:
            tiles = self.scheduler_config.tiles_per_task
            cost = job.task.cost
            est = self._predictor.remaining(cost, job.block_idx, tiles)
            total_dram = sum(
                b.from_dram_bytes for b in cost.blocks[job.block_idx:]
            )
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
        """Algorithm 3's admissions as ``(job_id, tiles)`` pairs."""
        assert self._scheduler is not None
        if not sim.ready:
            return []
        queue = [self._schedulable(sim, job) for job in sim.ready]
        selected = self._scheduler.select(sim.now, queue, sim.free_tiles)
        if not selected and not sim.running and not sim.has_pending_arrivals:
            # Nothing runs and nothing is left to arrive, so the clock
            # cannot advance and no score can rise past the threshold:
            # waiting would deadlock.  Admit the top-ranked task anyway.
            selected = [self._scheduler.top_ranked(sim.now, queue)]
        base = self.scheduler_config.tiles_per_task
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

        The whole decision round runs as **one fused sweep**: per-job
        demand/remain extraction (cached per ``(block, tiles)``),
        dynamic scoring, contention detection against a round-local
        mirror of the scoreboard, publication, and the cap diff all
        happen in a single loop — no intermediate item tuples, no
        second pass.  A sequence of
        :meth:`~repro.core.runtime.MoCARuntime.update_app` calls stays
        as the validated reference for this sweep: every float
        operation here replicates its sequence exactly — the
        co-runner demand sum and the water-fill input lists walk the
        scoreboard in publication order, each job sees its
        predecessors' freshly published rates — so the emitted
        overlay is bit-identical (property-pinned in
        ``tests/test_vectorized.py``).
        """
        assert self._runtime is not None and self._predictor is not None
        # The runtime's regulation constants, bundled once at
        # _lazy_init: one attribute read and a tuple unpack instead of
        # re-walking the runtime/scoreboard/predictor attribute chains
        # on every round.
        (
            entries, dram_bw, dram_bw_tol, overflow_cut,
            min_bw_rate, urgency_cap, suffix_of,
        ) = self._reg_consts
        now = sim.now
        epoch = self._epoch
        # With the fast path on, decide() only reaches this sweep
        # after bumping the co-runner epoch (admissions, boundary
        # change — the finish hook bumps too), so every job's
        # ``(block, epoch)`` key is new by construction and the
        # per-job probe/store of the regulation-key dict is dead
        # weight.  Comparators that shadow fast_path off re-enter
        # with an unchanged epoch and still need the key skip to
        # avoid re-extending reconfiguration stalls.
        track_keys = not self.fast_path
        regulated = self._regulated_block
        suffix_cache = self._suffix_cache
        item_cache = self._item_cache
        # Persistent mirror of the scoreboard in publication order:
        # parallel demand/score/entry lists plus an id -> index map,
        # updated in place as each job publishes, so per-job co-runner
        # sweeps read plain list slots (same values, same publication
        # order — every float sum keeps the reference operation
        # sequence).  Rebuilt only when the scoreboard changed outside
        # this sweep (retire, reset — both drop the mirror).
        mirror = self._sb_mirror
        if mirror is None or mirror[0] is not entries:
            ent_arr = list(entries.values())
            demand_arr = [e.demand for e in ent_arr]
            score_arr = [e.score for e in ent_arr]
            idx_of = {a: i for i, a in enumerate(entries)}
            self._sb_mirror = (
                entries, ent_arr, demand_arr, score_arr, idx_of
            )
        else:
            _, ent_arr, demand_arr, score_arr, idx_of = mirror
        n_apps = len(ent_arr)
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
            # Demand (straight off the engine's SoA runtime table —
            # the same float bw_demand would return), suffix remain
            # and the task's fixed deadline/priority, cached per
            # (block, tiles): jobs are re-regulated once per co-runner
            # epoch but revisit the same block several rounds in a
            # row, and the cached tuple keeps the whole item off the
            # task object.
            cached = item_cache.get(jid)
            if cached is None or cached[0] != bi or cached[1] != num_tiles:
                task = job.task
                sfx = suffix_cache.get(jid)
                if sfx is None or sfx[0] != num_tiles:
                    sfx = (num_tiles, suffix_of(task.cost, num_tiles))
                    if (
                        jid not in suffix_cache
                        and len(suffix_cache) >= _JOB_CACHE_CAP
                    ):
                        del suffix_cache[next(iter(suffix_cache))]
                    suffix_cache[jid] = sfx
                cached = (
                    bi,
                    num_tiles,
                    job._table.demand_rows[bi][num_tiles - 1],
                    sfx[1][bi],
                    task.deadline,
                    task.priority,
                )
                if (
                    jid not in item_cache
                    and len(item_cache) >= _JOB_CACHE_CAP
                ):
                    del item_cache[next(iter(item_cache))]
                item_cache[jid] = cached
            demand = cached[2]
            # Line 6: dynamic priority score (dynamic_score inlined;
            # remain >= 0 is guaranteed by the predictor).
            slack = cached[4] - now
            if slack <= 0:
                score = cached[5] + urgency_cap
            else:
                u = cached[3] / slack
                score = cached[5] + (
                    u if u < urgency_cap else urgency_cap
                )
            # Lines 9-14: co-runner demand sum in publication order,
            # exactly as sum(other_demands.values()) does.
            i_self = idx_of.get(jid, -1)
            other_bw = 0.0
            for i in range(n_apps):
                if i != i_self:
                    other_bw += demand_arr[i]
            if demand + other_bw - dram_bw > overflow_cut and demand > 0:
                # Contention (lines 16-18).  ``other_bw + demand`` is
                # the same float sequence the reference wants sum
                # produced (same addends, same order), so the
                # early-exit threshold is bit-identical.  Only this
                # app's grant is consumed, and it sits at a fixed
                # index: last — the water-fill inputs (co-runners in
                # scoreboard order, this app last, uncapped wants =
                # demands, scores as weights with the denormal
                # filter) are built only when the fill actually runs.
                if other_bw + demand <= dram_bw_tol:
                    share = demand
                else:
                    # Co-runner wants are demand_arr minus this app's
                    # slot (C-level slices); the weights keep the
                    # per-element denormal filter.
                    if i_self < 0:
                        wants = demand_arr.copy()
                    else:
                        wants = (
                            demand_arr[:i_self]
                            + demand_arr[i_self + 1:]
                        )
                    wants.append(demand)
                    weights = []
                    wappend = weights.append
                    for i in range(n_apps):
                        if i != i_self:
                            s = score_arr[i]
                            wappend(s if s > 1e-9 else 0.0)
                    wappend(score if score > 1e-9 else 0.0)
                    share = waterfill_grant_last(
                        wants, weights, dram_bw
                    )
                g = share if share > min_bw_rate else min_bw_rate
                bw_rate = g if g < demand else demand
                cap = bw_rate
            else:
                bw_rate = demand
                cap = None
            # Publish (line 25) straight into the live entry and the
            # round mirror, so successor jobs see this publication.
            if i_self < 0:
                entry = ScoreboardEntry(
                    bw_rate=bw_rate, demand=demand, score=score
                )
                entries[jid] = entry
                idx_of[jid] = n_apps
                ent_arr.append(entry)
                demand_arr.append(demand)
                score_arr.append(score)
                n_apps += 1
            else:
                entry = ent_arr[i_self]
                entry.bw_rate = bw_rate
                entry.demand = demand
                entry.score = score
                demand_arr[i_self] = demand
                score_arr[i_self] = score
            old = job.bw_cap
            if old == cap or (
                old is not None and cap is not None
                and abs(old - cap) < 1e-9
            ):
                # Restating the live cap: the engine would no-op it
                # anyway (same tolerance), so the plan omits the
                # entry — most regulation rounds then emit EMPTY_PLAN
                # and skip plan construction entirely.
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
        ready_after: bool,
    ) -> Tuple[Tuple[str, int], ...]:
        """Grant idle tiles to a job predicted to miss its SLA, only
        when the predicted gain clearly beats the migration stall."""
        assert self._predictor is not None
        if extra <= 0 or ready_after:
            return ()
        best_job = None
        best_gain = 0.0
        for job in planned_running:
            if not job.at_block_boundary:
                continue
            tiles = admitted_tiles.get(job.job_id, job.tiles)
            remain_now = self._predictor.remaining(
                job.task.cost, job.block_idx, tiles
            )
            slack = job.task.deadline - sim.now
            if remain_now <= slack:
                continue  # on track; leave it alone
            remain_more = self._predictor.remaining(
                job.task.cost, job.block_idx, tiles + extra
            )
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
        self._suffix_cache.pop(job.job_id, None)
        self._item_cache.pop(job.job_id, None)
        self._sb_mirror = None
        self._epoch += 1

    def reset(self) -> None:
        """Clear all per-simulation state."""
        self._runtime = None
        self._scheduler = None
        self._predictor = None
        self._sched_cache.clear()
        self._regulated_block.clear()
        self._suffix_cache.clear()
        self._item_cache.clear()
        self._sb_mirror = None
        self._reg_consts = None
        self._epoch = 0
        self._seen_boundaries = -1
