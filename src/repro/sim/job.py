"""Tasks and jobs: the simulator's unit of work.

A **task** is one dispatched inference query: a network, a dispatch
time, a user priority and an SLA deadline.  A **job** is the mutable
runtime state of a task inside the simulator: which layer block it is
on, how far through it, which resources it holds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

from repro.core.latency import NetworkCost


class JobPhase(enum.Enum):
    """Lifecycle of a task inside the simulator."""

    PENDING = "pending"      # not yet dispatched
    READY = "ready"          # dispatched, waiting in the task queue
    RUNNING = "running"      # executing on tiles
    FINISHED = "finished"


@dataclass(frozen=True)
class Task:
    """One inference query.

    Attributes:
        task_id: Unique id.
        network_name: Model being run.
        cost: Precomputed per-block costs of the model.
        dispatch_cycle: When the query enters the system.
        priority: Static user-given priority, 0 (lowest) to 11.
        qos_target_cycles: SLA target measured from dispatch; the
            absolute deadline is ``dispatch_cycle + qos_target_cycles``.
        isolated_cycles: Latency of the task running alone on the full
            SoC (the metrics' ``C_single``).
    """

    task_id: str
    network_name: str
    cost: NetworkCost
    dispatch_cycle: float
    priority: int
    qos_target_cycles: float
    isolated_cycles: float

    def __post_init__(self) -> None:
        if self.dispatch_cycle < 0:
            raise ValueError("dispatch_cycle must be non-negative")
        if not 0 <= self.priority <= 11:
            raise ValueError("priority must be within 0..11")
        if self.qos_target_cycles <= 0:
            raise ValueError("qos_target_cycles must be positive")
        if self.isolated_cycles <= 0:
            raise ValueError("isolated_cycles must be positive")

    @cached_property
    def deadline(self) -> float:
        """Absolute SLA deadline in cycles (cached: the regulation
        hot path reads it once per decision item)."""
        return self.dispatch_cycle + self.qos_target_cycles


@dataclass(slots=True)
class Job:
    """Mutable runtime state of one task.

    Attributes:
        task: The underlying task.
        phase: Lifecycle phase.
        block_idx: Index of the block currently executing.
        progress: Fraction of the current block completed, in [0, 1].
        tiles: Tiles currently held (0 when not running).
        bw_cap: MoCA throttle cap on the job's DRAM share in
            bytes/cycle; None when unthrottled.
        stall_until: Cycle until which the job is stalled (migration /
            reconfiguration penalties).
        started_at: First cycle the job ran.
        finished_at: Completion cycle.
        preemptions: Times the job was preempted (Prema).
        tile_repartitions: Times the job's tile count changed while
            running (each charged the compute-migration stall).
        bw_reconfigs: Times the job's throttle cap changed.
        stall_cycles: Total cycles spent stalled.
    """

    task: Task
    phase: JobPhase = JobPhase.PENDING
    block_idx: int = 0
    progress: float = 0.0
    tiles: int = 0
    bw_cap: Optional[float] = None
    stall_until: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    preemptions: int = 0
    tile_repartitions: int = 0
    bw_reconfigs: int = 0
    stall_cycles: float = 0.0
    #: Mirror of ``task.task_id``.  A plain slot, not a property: the
    #: engine reads it on every job on every event, and the double
    #: indirection was measurable on the hot path.
    job_id: str = field(init=False, repr=False, compare=False)
    #: The structure-of-arrays
    #: :class:`~repro.core.latency.RuntimeTable` for this job's
    #: network, attached at simulator construction (None for jobs
    #: never handed to an engine).  The engine and the policies read
    #: it; nothing writes it.
    table: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Engine-owned solve cache: the ``(block_idx, tiles, t_full,
    #: from_dram, demand)`` tuple of the last table row read,
    #: refreshed when the (block, tiles) key moves.  Only the engine's
    #: epoch solve writes it (slots forbid ad-hoc attributes); it is
    #: never part of results.
    solve_row: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Engine-owned block time under the last solved allocation epoch
    #: (valid only while the engine's solved epoch matches; see
    #: ``Simulator._solve_epoch``).  Only the epoch solve writes it.
    solve_time: float = field(
        default=0.0, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.job_id = self.task.task_id

    @property
    def num_blocks(self) -> int:
        return len(self.task.cost.blocks)

    @property
    def current_block(self):
        """Cost of the block currently executing."""
        return self.task.cost.blocks[self.block_idx]

    @property
    def at_block_boundary(self) -> bool:
        """True right after a block completion (progress reset)."""
        return self.progress == 0.0

    @property
    def remaining_blocks(self) -> int:
        return self.num_blocks - self.block_idx

    def is_stalled(self, now: float) -> bool:
        """Whether the job is serving a stall penalty at ``now``."""
        return now < self.stall_until

    @property
    def latency(self) -> float:
        """Dispatch-to-finish latency (the paper's measured latency)."""
        if self.finished_at is None:
            raise ValueError(f"{self.job_id} has not finished")
        return self.finished_at - self.task.dispatch_cycle

    @property
    def met_sla(self) -> bool:
        """Whether the job finished within its SLA target."""
        return self.latency <= self.task.qos_target_cycles


@dataclass(frozen=True)
class TaskResult:
    """Immutable per-task outcome extracted after simulation.

    Attributes mirror the fields the metrics need.
    """

    task_id: str
    network_name: str
    priority: int
    dispatch_cycle: float
    started_at: float
    finished_at: float
    qos_target_cycles: float
    isolated_cycles: float
    preemptions: int
    tile_repartitions: int
    bw_reconfigs: int
    stall_cycles: float

    @property
    def latency(self) -> float:
        return self.finished_at - self.dispatch_cycle

    @property
    def runtime(self) -> float:
        return self.finished_at - self.started_at

    @property
    def wait_cycles(self) -> float:
        return self.started_at - self.dispatch_cycle

    @property
    def met_sla(self) -> bool:
        return self.latency <= self.qos_target_cycles

    @property
    def slowdown(self) -> float:
        """Multi-tenant latency relative to isolated latency."""
        return self.latency / self.isolated_cycles

    @classmethod
    def from_job(cls, job: Job) -> "TaskResult":
        if job.finished_at is None or job.started_at is None:
            raise ValueError(f"{job.job_id} did not finish")
        return cls(
            task_id=job.task.task_id,
            network_name=job.task.network_name,
            priority=job.task.priority,
            dispatch_cycle=job.task.dispatch_cycle,
            started_at=job.started_at,
            finished_at=job.finished_at,
            qos_target_cycles=job.task.qos_target_cycles,
            isolated_cycles=job.task.isolated_cycles,
            preemptions=job.preemptions,
            tile_repartitions=job.tile_repartitions,
            bw_reconfigs=job.bw_reconfigs,
            stall_cycles=job.stall_cycles,
        )


def results_from_jobs(jobs: List[Job]) -> List[TaskResult]:
    """Convert finished jobs to results, sorted by task id."""
    return sorted(
        (TaskResult.from_job(j) for j in jobs), key=lambda r: r.task_id
    )
