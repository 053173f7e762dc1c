"""First-class sweep results: streaming accumulation and manifests.

The executor (:meth:`repro.experiments.parallel.ParallelRunner.
run_supervised`) produces one :class:`CellResult` per (scenario,
policy, seed) cell *as futures complete* — in whatever order the
workers finish.  This module turns that unordered stream back into
the deterministic structures the rest of the harness consumes:

- :class:`SweepResults` accumulates cells incrementally (no barrier:
  each cell is folded in the moment it arrives) and, once complete,
  assembles the ``{label: {policy: ScenarioResult}}`` matrix in spec
  order, policy order and per-seed order — so the result is
  bit-identical for every worker count and completion order by
  construction.
- :func:`cell_manifest` renders the full cell list of a sweep as a
  JSON-serialisable document (specs included via
  :meth:`ScenarioSpec.to_dict`).  Every cell entry carries the global
  submission index, so the manifest is the seam for future
  cross-machine sharding: a remote worker needs nothing but its slice
  of this document to run its cells and return indexed
  :class:`CellResult`-shaped rows.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.latency import CACHE_COUNTER_FIELDS
from repro.metrics import MetricsSummary
from repro.scenarios import ScenarioLike, ScenarioSpec, resolve_scenarios

__all__ = [
    "CACHE_COUNTER_FIELDS",
    "DECISION_COUNTER_FIELDS",
    "CellFailure",
    "CellResult",
    "SweepResults",
    "cell_from_dict",
    "cell_manifest",
    "cell_to_dict",
    "failure_from_dict",
    "failure_to_dict",
]

#: Engine/decision telemetry threaded from each cell's
#: :class:`~repro.sim.engine.SimResult` into its :class:`CellResult`
#: (and through the shard-partial serialisation seam).  The counters
#: describe the cell's simulation; a cell built from another cell's
#: deadline-blind run (see :func:`repro.experiments.runner.
#: run_cell_detail`) shares that run and reports its counters, which
#: are exactly what the cell's own simulation would report.
#: ``decisions`` equals ``events`` (the engine consults its policy at
#: every event); it stays for the readers of partials and telemetry.
DECISION_COUNTER_FIELDS = (
    "events",
    "block_time_recomputes",
    "block_time_reuses",
    "decisions",
    "plans_applied",
    "plans_noop",
    "plan_actions",
)


# Slotted: a sweep holds one record per cell for its whole lifetime.
@dataclass(frozen=True, slots=True)
class CellResult:
    """Outcome of one (scenario, policy, seed) cell of a sweep.

    Attributes:
        index: Global submission index of the cell (spec order, then
            policy order, then seed order) — the deterministic key
            streaming aggregation sorts by.
        spec_index: Index of the cell's scenario in the sweep's spec
            list.
        label: Scenario label.
        policy: Policy name.
        seed: Workload seed.
        summary: The cell's metric bundle.
        seconds: Wall seconds the cell took inside its worker (for a
            follower: generation and summary, no simulation).
        worker_pid: OS pid of the process that ran the cell.
        cost_cache_hits / cost_cache_misses: Network-cost cache probes
            during the cell (generation + simulation); a pre-warmed
            worker runs every cell at zero misses.
        events: Simulation events the cell's engine loop processed.
            This and the decision counters below describe the cell's
            simulation, which a follower cell shares with its lead
            (see :func:`repro.experiments.runner.run_cell_detail`).
        block_time_recomputes / block_time_reuses: Full block-time
            solves vs allocation-epoch cache hits.
        decisions: Times the policy was consulted for a plan (the
            engine consults it at every event: equals ``events``).
        plans_applied / plans_noop: Plans that did / did not mutate
            engine state.
        plan_actions: Total mutations the controller applied.
    """

    index: int
    spec_index: int
    label: str
    policy: str
    seed: int
    summary: MetricsSummary
    seconds: float
    worker_pid: int = 0
    cost_cache_hits: int = 0
    cost_cache_misses: int = 0
    events: int = 0
    block_time_recomputes: int = 0
    block_time_reuses: int = 0
    decisions: int = 0
    plans_applied: int = 0
    plans_noop: int = 0
    plan_actions: int = 0

    def __reduce__(self):
        # Cells cross the process boundary one pickle at a time, so
        # each would arrive with its own label and policy strings;
        # interning them leaves one object per name in the sweep.
        return (
            _unpickle_cell,
            tuple(getattr(self, f.name) for f in fields(self)),
        )


def _unpickle_cell(index, spec_index, label, policy, *rest) -> CellResult:
    return CellResult(
        index, spec_index, sys.intern(label), sys.intern(policy), *rest
    )


#: The failure classes the supervised executor distinguishes.
FAILURE_KINDS = ("error", "crash", "timeout")


@dataclass(frozen=True)
class CellFailure:
    """Structured record of a cell that exhausted its retry budget.

    The graceful-degradation counterpart of :class:`CellResult`: a
    persistently failing ("poison") cell is quarantined as one of
    these instead of aborting the sweep, keeping the identifying
    coordinates so a resume can re-run exactly this cell from its
    spec.

    Attributes:
        index: Global submission index of the failed cell.
        spec_index: Index of the cell's scenario in the sweep's spec
            list.
        label: Scenario label.
        policy: Policy name.
        seed: Workload seed.
        kind: Failure class — ``"error"`` (the cell raised),
            ``"crash"`` (its worker process died), or ``"timeout"``
            (it exceeded the wall-clock cell timeout).
        attempts: Execution attempts made before quarantine.
        message: Human-readable description of the final failure.
    """

    index: int
    spec_index: int
    label: str
    policy: str
    seed: int
    kind: str
    attempts: int
    message: str

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; choose from "
                f"{', '.join(FAILURE_KINDS)}"
            )
        if self.attempts < 1:
            raise ValueError("a failure records >= 1 attempts")


def failure_to_dict(failure: CellFailure) -> dict:
    """A :class:`CellFailure` as JSON-ready primitives."""
    return {
        "index": failure.index,
        "spec_index": failure.spec_index,
        "label": failure.label,
        "policy": failure.policy,
        "seed": failure.seed,
        "kind": failure.kind,
        "attempts": failure.attempts,
        "message": failure.message,
    }


def _int_field(payload: dict, name: str) -> int:
    """``payload[name]``, refused with ``ValueError`` unless it is an
    int (a bool is not): cell indices and seeds are sorted and used
    as list indices downstream."""
    value = payload[name]
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def failure_from_dict(payload: dict) -> CellFailure:
    """Rebuild a :class:`CellFailure` from :func:`failure_to_dict`."""
    return CellFailure(
        index=_int_field(payload, "index"),
        spec_index=_int_field(payload, "spec_index"),
        label=payload["label"],
        policy=payload["policy"],
        seed=_int_field(payload, "seed"),
        kind=payload["kind"],
        attempts=payload["attempts"],
        message=payload["message"],
    )


class SweepResults:
    """Incremental, completion-order-independent sweep accumulator.

    Construct with the sweep's resolved shape (specs and policy
    names), then :meth:`add` every :class:`CellResult` in *any* order;
    :meth:`matrix` assembles the deterministic serial-identical result
    once all expected cells have arrived.  Duplicate or unexpected
    cells fail loudly — silent double-aggregation would corrupt the
    per-seed tuples.

    Quarantined cells arrive as :class:`CellFailure` records via
    :meth:`add_failure` instead of aborting the sweep; a later
    successful re-run of the same cell (retry determinism: the cell
    is re-run from its spec, so the result is what it always was)
    simply replaces the failure.  :attr:`complete` remains "every
    cell has a *result*" — failures never count toward completion,
    they only explain it; :attr:`degraded` distinguishes "finished
    but quarantined cells remain" from a sweep still missing work.

    Attributes:
        specs: Resolved scenario specs, in sweep order.
        policies: Policy names, in sweep order.
    """

    def __init__(
        self,
        specs: Sequence[ScenarioLike],
        policies: Sequence[str],
    ) -> None:
        from repro.experiments.runner import check_unique_labels

        self.specs: List[ScenarioSpec] = resolve_scenarios(specs)
        check_unique_labels(self.specs)
        self.policies: List[str] = list(policies)
        if not self.policies:
            raise ValueError("need at least one policy")
        #: index -> (spec_index, policy, seed), in submission order.
        self._slots: List[Tuple[int, str, int]] = [
            (spec_idx, policy, seed)
            for spec_idx, spec in enumerate(self.specs)
            for policy in self.policies
            for seed in spec.seeds
        ]
        self._cells: Dict[int, CellResult] = {}
        self._failures: Dict[int, CellFailure] = {}

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def expected(self) -> int:
        """Total cells this sweep comprises."""
        return len(self._slots)

    @property
    def complete(self) -> bool:
        return len(self._cells) == len(self._slots)

    @property
    def degraded(self) -> bool:
        """Whether quarantined failures stand in for missing cells."""
        return not self.complete and bool(self._failures)

    def add(self, cell: CellResult) -> None:
        """Fold one completed cell in (any order, exactly once).

        A successful cell supersedes any quarantined failure recorded
        at the same index — a resumed re-run heals the sweep.
        """
        if not 0 <= cell.index < len(self._slots):
            raise ValueError(
                f"cell index {cell.index} outside sweep of "
                f"{len(self._slots)} cells"
            )
        expected = self._slots[cell.index]
        got = (cell.spec_index, cell.policy, cell.seed)
        if got != expected:
            raise ValueError(
                f"cell {cell.index} is {got}, expected {expected}"
            )
        if cell.index in self._cells:
            raise ValueError(f"duplicate cell {cell.index}")
        self._cells[cell.index] = cell
        self._failures.pop(cell.index, None)

    def add_failure(self, failure: CellFailure) -> None:
        """Record a quarantined cell (validated against the sweep
        shape like :meth:`add`).

        A failure for a cell that already has a successful result is
        discarded (the result wins — e.g. a stale failure record from
        a pre-resume checkpoint).  A repeated failure for the same
        index keeps the latest record.
        """
        if not 0 <= failure.index < len(self._slots):
            raise ValueError(
                f"failure index {failure.index} outside sweep of "
                f"{len(self._slots)} cells"
            )
        expected = self._slots[failure.index]
        got = (failure.spec_index, failure.policy, failure.seed)
        if got != expected:
            raise ValueError(
                f"failure {failure.index} is {got}, expected {expected}"
            )
        if failure.index in self._cells:
            return
        self._failures[failure.index] = failure

    def has_cell(self, index: int) -> bool:
        """Whether a successful result for ``index`` is folded in."""
        return index in self._cells

    def cells(self) -> List[CellResult]:
        """Accumulated cells, sorted back into submission order."""
        return [self._cells[i] for i in sorted(self._cells)]

    def failures(self) -> List[CellFailure]:
        """Quarantined failures, sorted by cell index."""
        return [self._failures[i] for i in sorted(self._failures)]

    def failed_indices(self) -> List[int]:
        """Global indices holding a failure record (and no result)."""
        return sorted(self._failures)

    def missing_indices(self) -> List[int]:
        """Global indices of cells not yet folded in — gap detection
        for the shard merge path, and the re-run list for resume.
        Quarantined cells count as missing (a resume re-runs them)."""
        return [
            i for i in range(len(self._slots)) if i not in self._cells
        ]

    def progress(self) -> Dict[str, int]:
        """Live progress counters (the coordinator's status report):
        how many cells are expected, folded in, quarantined, and
        still missing (quarantined cells also count as missing — a
        resume re-runs them)."""
        return {
            "expected": len(self._slots),
            "completed": len(self._cells),
            "quarantined": len(self._failures),
            "missing": len(self._slots) - len(self._cells),
        }

    def matrix(self) -> Dict[str, Dict[str, "ScenarioResult"]]:
        """The deterministic ``{label: {policy: ScenarioResult}}``.

        Requires completeness; the assembly iterates specs, policies
        and seeds in sweep order, so the output is independent of the
        order cells were added in and identical to the serial path.
        """
        from repro.experiments.runner import ScenarioResult

        if not self.complete:
            missing = self.missing_indices()
            quarantined = (
                f", {len(self._failures)} of them quarantined failures"
                if self._failures else ""
            )
            raise ValueError(
                f"sweep incomplete: {len(missing)} of "
                f"{len(self._slots)} cells missing "
                f"(first: {missing[:5]}){quarantined}"
            )
        by_slot: Dict[Tuple[int, str], List[MetricsSummary]] = {}
        for index, (spec_idx, policy, _seed) in enumerate(self._slots):
            by_slot.setdefault((spec_idx, policy), []).append(
                self._cells[index].summary
            )
        out: Dict[str, Dict[str, ScenarioResult]] = {}
        for spec_idx, spec in enumerate(self.specs):
            out[spec.label] = {
                policy: ScenarioResult(
                    policy=policy,
                    spec=spec,
                    per_seed=tuple(by_slot[(spec_idx, policy)]),
                )
                for policy in self.policies
            }
        return out

    def cache_stats(self) -> Dict[str, int]:
        """Cache counters summed over every accumulated cell."""
        stats = {
            name: sum(getattr(c, name) for c in self._cells.values())
            for name in CACHE_COUNTER_FIELDS
        }
        # Always 0 (no predict memo); kept for perfbench's harness.
        stats.update(predict_memo_hits=0, predict_memo_misses=0)
        return stats

    def decision_stats(self) -> Dict[str, int]:
        """Engine/decision counters summed over every accumulated
        cell (see :data:`DECISION_COUNTER_FIELDS`)."""
        return {
            name: sum(getattr(c, name) for c in self._cells.values())
            for name in DECISION_COUNTER_FIELDS
        }


def cell_to_dict(cell: CellResult) -> dict:
    """A :class:`CellResult` as JSON-ready primitives.

    The serialisation seam shard partial artifacts use; the metric
    bundle goes through :meth:`MetricsSummary.to_dict`, which
    round-trips floats exactly, so :func:`cell_from_dict` rebuilds a
    cell whose summary compares equal bit-for-bit.
    """
    return {
        "index": cell.index,
        "spec_index": cell.spec_index,
        "label": cell.label,
        "policy": cell.policy,
        "seed": cell.seed,
        "summary": cell.summary.to_dict(),
        "seconds": cell.seconds,
        "worker_pid": cell.worker_pid,
        **{name: getattr(cell, name) for name in CACHE_COUNTER_FIELDS},
        **{
            name: getattr(cell, name)
            for name in DECISION_COUNTER_FIELDS
        },
    }


def cell_from_dict(payload: dict) -> CellResult:
    """Rebuild a :class:`CellResult` from :func:`cell_to_dict`."""
    return CellResult(
        index=_int_field(payload, "index"),
        spec_index=_int_field(payload, "spec_index"),
        label=payload["label"],
        policy=payload["policy"],
        seed=_int_field(payload, "seed"),
        summary=MetricsSummary.from_dict(payload["summary"]),
        seconds=payload["seconds"],
        worker_pid=payload.get("worker_pid", 0),
        **{
            name: payload.get(name, 0) for name in CACHE_COUNTER_FIELDS
        },
        **{
            name: payload.get(name, 0)
            for name in DECISION_COUNTER_FIELDS
        },
    )


def cell_manifest(
    specs: Sequence[ScenarioLike],
    policies: Optional[Sequence[str]] = None,
) -> dict:
    """Serialisable manifest of every cell a sweep comprises.

    The returned document is pure JSON material: the resolved specs
    (via :meth:`ScenarioSpec.to_dict`) plus one entry per cell with
    its global index — the same (spec, policy, seed) flattening order
    the executor submits in.  A future cross-machine shard needs only
    a slice of ``cells`` plus the referenced scenario entries.
    """
    if policies is None:
        from repro.experiments.runner import default_policies

        policies = list(default_policies())
    spec_list = resolve_scenarios(specs)
    from repro.experiments.runner import check_unique_labels

    check_unique_labels(spec_list)
    cells = []
    index = 0
    for spec_idx, spec in enumerate(spec_list):
        for policy in policies:
            for seed in spec.seeds:
                cells.append(
                    {
                        "index": index,
                        "scenario": spec.label,
                        "spec_index": spec_idx,
                        "policy": policy,
                        "seed": seed,
                    }
                )
                index += 1
    return {
        "scenarios": [
            {"label": spec.label, "spec": spec.to_dict()}
            for spec in spec_list
        ],
        "policies": list(policies),
        "cells": cells,
    }
