"""Static compute partitioning baseline (Section IV-D, baseline 2).

The SoC's tiles are carved into fixed, equal slots at boot; each
arriving task occupies one free slot first-come-first-served and runs
to completion.  Nothing is ever repartitioned and the shared memory
system is left unmanaged — under contention each job's DRAM share is
whatever demand-proportional interleaving gives it.

This is also the "unmanaged co-location" configuration behind the
motivation study (Figure 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import Policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job


class StaticPartitionPolicy(Policy):
    """Fixed equal tile slots, FCFS admission, no runtime management.

    Attributes:
        tiles_per_slot: Tiles in each static slot (default 2, giving
            four co-running workloads on the Table II SoC).
    """

    name = "static"
    #: FCFS admission into fixed slots never looks at a deadline.
    reads_deadlines = False

    def __init__(self, tiles_per_slot: int = 2) -> None:
        if tiles_per_slot <= 0:
            raise ValueError("tiles_per_slot must be positive")
        self.tiles_per_slot = tiles_per_slot

    def decide(self, sim: "Simulator") -> AllocationPlan:
        """Plan admissions into free slots in dispatch order."""
        free = sim.free_tiles
        admissions = []
        for job in sim.ready:
            if free < self.tiles_per_slot:
                break
            admissions.append((job.job_id, self.tiles_per_slot))
            free -= self.tiles_per_slot
        if not admissions:
            return EMPTY_PLAN
        return AllocationPlan(admissions=tuple(admissions))

    def reset(self) -> None:
        """Stateless policy; nothing to clear."""
