"""The policy interface between the simulator and schedulers.

A *policy* bundles everything above the hardware: the admission
scheduler, the resource (tile / bandwidth) manager, and the costs its
reconfigurations incur.  The seam is **declarative**: at every
simulation event the engine calls :meth:`Policy.decide`, which
inspects engine state *without mutating it* and returns an
:class:`~repro.sim.plan.AllocationPlan` — admissions, tile targets,
bandwidth caps, preemptions.  The engine-side
:class:`~repro.sim.plan.AllocationController` diffs the plan against
live state, applies it atomically, and charges the reconfiguration
costs centrally.  Driving one decision point by hand (as the tests
do) is ``sim.controller.apply(policy.decide(sim))``.

Reconfiguration costs (Section V-A):

- changing a running job's **tile allocation** costs a thread-migration
  stall of ~1 M cycles (thread spawning + synchronization);
- changing a job's **memory throttle** costs 5-10 cycles (we charge 8),
  which is why MoCA "triggers memory repartitioning more frequently
  than compute repartitioning".
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.sim.plan import AllocationPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job

#: Average thread-migration penalty for compute repartitioning, cycles.
COMPUTE_RECONFIG_CYCLES = 1_000_000

#: DMA issue-rate reconfiguration penalty for memory repartitioning.
MEMORY_RECONFIG_CYCLES = 8


class Policy(abc.ABC):
    """Base class for multi-tenancy policies.

    Subclasses implement :meth:`decide`; a policy without it fails
    at construction.

    Attributes:
        name: Human-readable policy name (used in reports).
        compute_reconfig_cycles: Stall charged when a running job's
            tile count changes.
        memory_reconfig_cycles: Stall charged when a job's bandwidth
            cap changes.
    """

    name: str = "base"
    compute_reconfig_cycles: int = COMPUTE_RECONFIG_CYCLES
    memory_reconfig_cycles: int = MEMORY_RECONFIG_CYCLES

    #: Optional fused decision round for the engine loop: a policy
    #: may implement ``kernel_decide_apply(sim) -> None``, making
    #: exactly the decisions :meth:`decide` would make but applying
    #: them itself through the controller (e.g. a caps-only overlay
    #: via :meth:`~repro.sim.plan.AllocationController.apply_caps`,
    #: skipping the plan object).  None means the engine drives
    #: :meth:`decide` plus a plan apply.  Under ``REPRO_CHECK=1`` the
    #: engine ignores the hook, so every decision round goes through
    #: the validating plan constructor.
    kernel_decide_apply = None

    #: Whether any decision of this policy reads a task's SLA target
    #: (``Task.qos_target_cycles`` or ``Task.deadline``).  A
    #: deadline-blind policy (``False``) produces the same timeline for
    #: two task lists that differ only in their targets, so a sweep
    #: simulates such cells once and rebuilds the others' results
    #: from that run (see :func:`repro.experiments.runner.
    #: run_cell_detail`).  A fact about the policy's code, not an
    #: option: a subclass whose ``decide`` starts reading deadlines
    #: must set it back to ``True``.
    reads_deadlines: bool = True

    @abc.abstractmethod
    def decide(self, sim: "Simulator") -> AllocationPlan:
        """Compute this decision point's allocation plan.

        Must be a pure *read* of the engine (policy-internal state may
        advance — scoreboards, caches — but no engine mutation); the
        engine applies the returned plan through its
        :class:`~repro.sim.plan.AllocationController`.  Returning
        :data:`~repro.sim.plan.EMPTY_PLAN` (or ``None``) means "no
        changes".
        """

    def on_job_finished(self, sim: "Simulator", job: "Job") -> None:
        """Hook invoked right after a job completes."""

    def reset(self) -> None:
        """Clear internal state before a fresh simulation."""
