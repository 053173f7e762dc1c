"""Planaria baseline (Ghodrati et al., MICRO 2020) — baseline 3.

Planaria spatially co-locates DNNs by *dynamic architecture fission*:
the accelerator's compute fabric is split into pods and the split is
re-derived whenever task urgency or the running set changes, driven by
each task's priority and deadline slack.  Memory resources are not
managed — each pod's DRAM share is whatever unmanaged interleaving
yields — and every repartition of a running task costs a
thread-migration stall (~1 M cycles, Section V-A), the overhead that
dominates light-model scenarios in the paper's Figure 5.

Reproduction notes: pods map to Gemmini tiles; the fission heuristic
is priority x urgency weighted apportionment with a minimum of one
tile per admitted task, re-evaluated at every scheduling event with
urgency quantized into buckets so repartitions fire at discrete
urgency transitions (as Planaria's epoch-based scheduler does).  A
task's remaining work is the remaining-latency suffix on its runtime
table (:class:`~repro.core.latency.RuntimeTable`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import Policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job


def _neg_priority(job: "Job") -> int:
    return -job.task.priority


class PlanariaPolicy(Policy):
    """Dynamic compute-only spatial partitioning.

    Attributes:
        max_concurrent: Most tasks co-located at once.
        min_tiles: Smallest pod granted to an admitted task.
    """

    name = "planaria"

    def __init__(self, max_concurrent: int = 4, min_tiles: int = 1) -> None:
        if max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        if min_tiles <= 0:
            raise ValueError("min_tiles must be positive")
        self.max_concurrent = max_concurrent
        self.min_tiles = min_tiles
        #: ``{job_id: urgency bucket}`` of the last re-derived fission.
        self._last_buckets: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def decide(self, sim: "Simulator") -> AllocationPlan:
        """Admit by priority, then re-derive the fission as one plan."""
        admit = self._admission_order(sim)
        incumbents = list(sim.running)
        candidates = incumbents + admit
        if not candidates:
            return EMPTY_PLAN

        # Fission is re-derived only when its inputs change: the set of
        # co-running tasks, or a task becoming deadline-critical
        # (Planaria's scheduler runs on task events and deadline
        # epochs; re-deriving on every simulator event would cascade
        # the migration stalls unboundedly).
        # Each candidate's bucket is computed once per round and reused
        # by the signature, the fission weights and the grow test.
        now = sim.now
        buckets = {j.job_id: self._urgency_bucket(j, now) for j in candidates}
        if buckets == self._last_buckets and not admit:
            return EMPTY_PLAN
        self._last_buckets = buckets

        desired = self._fission_shares(sim, candidates, buckets)

        def wants_change(job: "Job") -> bool:
            # Pod-granularity hysteresis: a one-tile shrink is not
            # worth a 1 M-cycle migration; grows follow urgency.
            delta = desired[job.job_id] - job.tiles
            if delta == 0:
                return False
            if abs(delta) >= 2:
                return True
            return delta > 0 and buckets[job.job_id] >= 2.0

        # Shrinks on running jobs free tiles for the newcomers, the
        # remainder funds the grows — the controller's canonical
        # application order; ``free`` mirrors it while planning.
        free = sim.free_tiles
        shrinks: List[tuple] = []
        grows: List[tuple] = []
        admissions: List[tuple] = []
        for job in incumbents:
            if desired[job.job_id] < job.tiles and wants_change(job):
                shrinks.append((job.job_id, desired[job.job_id]))
                free += job.tiles - desired[job.job_id]
        for job in admit:
            share = min(desired[job.job_id], free)
            if share >= self.min_tiles:
                admissions.append((job.job_id, share))
                free -= share
        for job in incumbents:
            if desired[job.job_id] > job.tiles and wants_change(job):
                grant = min(desired[job.job_id], job.tiles + free)
                if grant != job.tiles:
                    grows.append((job.job_id, grant))
                    free -= grant - job.tiles
        if not admissions and not shrinks and not grows:
            return EMPTY_PLAN
        return AllocationPlan(
            admissions=tuple(admissions),
            tiles=tuple(shrinks + grows),
        )

    def _admission_order(self, sim: "Simulator") -> List["Job"]:
        """Waiting tasks to admit, best priority/age first.

        ``sim.ready`` is already ordered by ``(dispatch_cycle, job_id)``,
        so a stable sort on priority alone ranks by (priority, age, id).
        """
        slots = self.max_concurrent - len(sim.running)
        if slots <= 0 or not sim.ready:
            return []
        ranked = sorted(sim.ready, key=_neg_priority)
        return ranked[:slots]

    # ------------------------------------------------------------------

    def _urgency_bucket(self, job: "Job", now: float) -> float:
        """Quantized urgency from deadline slack vs remaining work
        (predicted off the job's runtime table)."""
        tiles = job.tiles
        if tiles < self.min_tiles:
            tiles = self.min_tiles
        remain = job.table.remain_cols[tiles - 1][job.block_idx]
        slack = job.task.deadline - now
        if slack <= 0 or remain <= 0:
            return 4.0
        ratio = slack / remain
        if ratio < 1.0:
            return 4.0
        if ratio < 2.0:
            return 2.0
        return 1.0

    def _fission_shares(
        self,
        sim: "Simulator",
        candidates: List["Job"],
        buckets: Dict[str, float],
    ) -> Dict[str, int]:
        """Apportion all tiles by priority x urgency (min 1 each)."""
        total = sim.soc.num_tiles
        weights = {
            j.job_id: (j.task.priority + 1) * buckets[j.job_id]
            for j in candidates
        }
        weight_sum = sum(weights.values())
        # Largest-remainder apportionment with a floor of min_tiles.
        shares = {jid: self.min_tiles for jid in weights}
        spare = total - self.min_tiles * len(candidates)
        if spare < 0:
            # More candidates than tiles: the lowest-weight newcomers
            # simply wait (handled by the admission cap upstream).
            return shares
        quotas = {
            jid: spare * w / weight_sum for jid, w in weights.items()
        }
        for jid, quota in quotas.items():
            shares[jid] += int(quota)
        leftovers = spare - sum(int(q) for q in quotas.values())
        by_remainder = sorted(
            quotas, key=lambda jid: (quotas[jid] - int(quotas[jid]), jid),
            reverse=True,
        )
        for jid in by_remainder[:leftovers]:
            shares[jid] += 1
        return shares

    def reset(self) -> None:
        """Forget the last fission (new simulation)."""
        self._last_buckets = {}
