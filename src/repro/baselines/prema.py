"""PREMA baseline (Choi & Rhu, HPCA 2020) — Section IV-D, baseline 1.

PREMA time-multiplexes the whole accelerator across DNNs with a
predictive, token-based priority scheduler:

- every waiting task accumulates *tokens* proportionally to its static
  priority and the time it has waited;
- when the accelerator becomes free (or a preemption fires), the task
  with the most tokens runs next on **all** compute resources;
- a running task is preempted at a layer (here: block) checkpoint when
  a waiting task's token count exceeds its own by the preemption
  threshold, paying the checkpoint/restore overhead.

Because execution is strictly temporal, co-location never causes
bandwidth contention — but short tasks queue behind long ones, which
is why PREMA trails every spatial scheme on SLA and STP in Figures
5-8.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import Policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job

#: Cycles to checkpoint + restore accelerator state on a preemption
#: (scratchpad/accumulator flush and refill over the memory system).
PREEMPTION_OVERHEAD_CYCLES = 50_000

#: Static priority levels 0..11 (validated by :class:`~repro.sim.job.Task`).
_PRIORITY_LEVELS = 12


class PremaPolicy(Policy):
    """Token-based temporal multiplexing of the full accelerator.

    Attributes:
        preemption_threshold: A waiting task preempts when its tokens
            exceed the running task's by this multiplicative factor.
        preemption_overhead: Checkpoint/restore stall charged to the
            incoming task on a preemptive switch.
    """

    name = "prema"
    #: Tokens come from priority and waiting time, never a deadline.
    reads_deadlines = False

    def __init__(
        self,
        preemption_threshold: float = 2.0,
        preemption_overhead: int = PREEMPTION_OVERHEAD_CYCLES,
    ) -> None:
        if preemption_threshold < 1.0:
            raise ValueError("preemption_threshold must be >= 1")
        if preemption_overhead < 0:
            raise ValueError("preemption_overhead must be >= 0")
        self.preemption_threshold = preemption_threshold
        self.preemption_overhead = preemption_overhead
        self._preempted_by_us = False

    def tokens(self, job: "Job", now: float) -> float:
        """PREMA token count: tokens accrue proportionally to the
        task's priority for every cycle it waits (the paper's scheme —
        tokens are not normalized by job length, which is why short
        tasks queue behind long high-priority ones)."""
        waited = max(0.0, now - job.task.dispatch_cycle)
        return (job.task.priority + 1) * waited

    def decide(self, sim: "Simulator") -> AllocationPlan:
        """Keep exactly one job running; preempt at block checkpoints.

        A preemptive switch is one atomic plan: preempt the runner,
        admit the challenger onto every tile, and charge the
        checkpoint/restore overhead as an extra stall.
        """
        if sim.running:
            runner = sim.running[0]
            # Preemption happens only at an unstalled block checkpoint;
            # test that before paying for the challenger search.
            if not runner.at_block_boundary or runner.is_stalled(sim.now):
                return EMPTY_PLAN
            challenger = self._best_waiting(sim)
            if (
                challenger is not None
                and self.tokens(challenger, sim.now)
                > self.preemption_threshold
                * max(self.tokens(runner, sim.now), 1e-12)
            ):
                return AllocationPlan(
                    preemptions=(runner.job_id,),
                    admissions=((challenger.job_id, sim.soc.num_tiles),),
                    stalls=(
                        (challenger.job_id, self.preemption_overhead),
                    ),
                )
            return EMPTY_PLAN
        nxt = self._best_waiting(sim)
        if nxt is None:
            return EMPTY_PLAN
        stalls = ()
        if nxt.preemptions > 0:
            # A job resuming after a preemption pays the restore half
            # of the checkpoint overhead on re-admission.
            stalls = ((nxt.job_id, self.preemption_overhead),)
        return AllocationPlan(
            admissions=((nxt.job_id, sim.soc.num_tiles),), stalls=stalls
        )

    def _best_waiting(self, sim: "Simulator") -> Optional["Job"]:
        """The waiting job maximising ``(tokens, priority, -dispatch,
        job_id)``.

        ``sim.ready`` is kept sorted by ``(dispatch_cycle, job_id)``,
        and within one priority class tokens never grow with the
        dispatch cycle.  So each class's best job is its earliest
        dispatch, ties going to the largest job id — the last of the
        equal-dispatch run in ready order.  One pass finds those heads;
        the full key is then compared only among them (at most one per
        priority level).
        """
        heads: List[Optional["Job"]] = [None] * _PRIORITY_LEVELS
        for job in sim.ready:
            task = job.task
            head = heads[task.priority]
            if (
                head is None
                or head.task.dispatch_cycle == task.dispatch_cycle
            ):
                heads[task.priority] = job
        now = sim.now
        best = None
        best_key = None
        for job in heads:
            if job is None:
                continue
            task = job.task
            # tokens(job, now), inlined: the same float.
            waited = now - task.dispatch_cycle
            key = (
                (task.priority + 1) * (waited if waited > 0.0 else 0.0),
                task.priority,
                -task.dispatch_cycle,
                job.job_id,
            )
            if best is None or key > best_key:
                best = job
                best_key = key
        return best

    def reset(self) -> None:
        """Stateless between runs."""
