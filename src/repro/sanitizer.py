"""Runtime invariant sanitizer (``REPRO_CHECK=1``).

The static pass (:mod:`repro.devtools.lint`) proves what it can from
source: no unseeded RNGs, no unordered iteration feeding ordered
output, lock coverage over the thread-shared execution layer, frozen
value objects only mutated inside their own modules.  What it cannot
prove — that the engine's epoch solve really computes the reference
oracle's floats, that no task finishes faster than it would alone,
that the work ledger's state machine stays coherent across a
lease/expire/steal interleaving — this module cross-checks at
runtime, behind one switch.

Set ``REPRO_CHECK=1`` in the environment (or call :func:`enable`) and
the guarded hot paths turn on their asserts:

- :meth:`repro.sim.engine.Simulator._advance_horizon` spot-checks
  its epoch block-time solve against
  :func:`repro.sim.reference.solve_block_times` (first epoch, then
  every 64th — the bit-identical contract, sampled), and bypasses
  policies' fused decision hooks so every decision round builds an
  :class:`~repro.sim.plan.AllocationPlan` through its validating
  constructor and reaches the controller.
- :meth:`repro.sim.engine.Simulator.result` checks every finished
  task's latency against its isolated latency
  (:func:`check_isolated_floor`).
- :class:`repro.experiments.execution.leases.WorkLedger` re-verifies
  its full state-machine invariant set after every mutating op.

Violations raise :class:`SanitizerError` (an ``AssertionError``
subclass: a sanitizer trip is always a bug in this codebase, never a
user error).  With the switch off the hooks cost one attribute read
and a branch — the sanitized CI tier runs the same simulations as the
unchecked tier and must produce byte-identical artifacts, which is
itself asserted in ``scripts/ci.sh``.
"""

from __future__ import annotations

import os

__all__ = [
    "SanitizerError",
    "disable",
    "enable",
    "enabled",
    "require",
]


class SanitizerError(AssertionError):
    """A runtime cross-check failed: two code paths that must agree
    disagreed, or an internal state machine broke its invariants.
    Always a bug in this codebase (file an issue with the traceback),
    never a user input problem."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


#: Whether sanitized mode is on.  Read via ``sanitizer.enabled`` (a
#: live module attribute, so :func:`enable` in one test is seen by
#: already-imported hot paths).  Seeded from ``REPRO_CHECK`` at import.
enabled: bool = _env_enabled()


def enable() -> None:
    """Turn sanitized mode on for this process (tests use this
    instead of re-execing with ``REPRO_CHECK=1``)."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn sanitized mode off again."""
    global enabled
    enabled = False


def require(condition: bool, message: str) -> None:
    """Raise :class:`SanitizerError` unless ``condition`` holds."""
    if not condition:
        raise SanitizerError(message)


def check_block_times(fast: dict, reference: dict, now: float) -> None:
    """Assert the engine's epoch solve matches the reference solve
    exactly (same jobs, bit-identical floats).

    ``fast`` maps each job the engine solved this epoch to its block
    time; ``reference`` is :func:`repro.sim.reference.solve_block_times`
    on the same state.  The engine replicates the reference's float
    sequence operation for operation, so the comparison is exact
    equality, not tolerance.
    """
    if fast == reference:
        return
    extra = sorted(set(fast) - set(reference))
    missing = sorted(set(reference) - set(fast))
    if extra or missing:
        raise SanitizerError(
            f"block-time divergence at t={now}: engine solve has "
            f"extra jobs {extra}, missing jobs {missing}"
        )
    for jid in sorted(reference):
        if fast[jid] != reference[jid]:
            raise SanitizerError(
                f"block-time divergence at t={now}: job {jid!r} "
                f"engine={fast[jid]!r} reference={reference[jid]!r}"
            )
    raise SanitizerError(f"block-time divergence at t={now}")


def check_isolated_floor(results) -> None:
    """Assert no finished task beat its isolated latency.

    ``results`` are the run's :class:`~repro.sim.job.TaskResult`
    records.  A task's isolated latency is its run time alone on the
    whole SoC, so a multi-tenant latency below it means the engine
    granted more compute or bandwidth than the hardware has.  The
    1e-9 relative slack covers float rounding in the fluid solve (the
    worst ratio measured over both benchmark workloads is
    1 - 2.6e-14).
    """
    for r in results:
        if r.latency < r.isolated_cycles * (1.0 - 1e-9):
            raise SanitizerError(
                f"task {r.task_id!r} finished in {r.latency!r} "
                f"cycles, below its isolated latency "
                f"{r.isolated_cycles!r}"
            )
