"""Experiment harness: one module per paper figure/table (DESIGN.md §3).

The coordinator/worker names (:mod:`repro.experiments.execution`) are
exported lazily (PEP 562): that layer pulls in ``http.server`` and
``urllib``, which a local or pool sweep never uses, so it is imported
on first access to one of its names rather than with this package.
"""

from repro.experiments.parallel import ParallelRunner
from repro.experiments.results import (
    CellResult,
    SweepResults,
    cell_manifest,
)
from repro.experiments.runner import (
    PolicyFactory,
    ScenarioResult,
    ScenarioSpec,
    default_policies,
    run_cell,
    run_matrix,
    run_scenario,
)
from repro.experiments.sharding import (
    ShardPlan,
    manifest_digest,
    merge_partials,
    run_shard,
)

#: Names re-exported from :mod:`repro.experiments.execution` on first
#: access (see the module docstring).
_EXECUTION_NAMES = frozenset({
    "Coordinator",
    "CoordinatorServer",
    "HttpTransport",
    "InProcessTransport",
    "SweepWorker",
    "Transport",
    "TransportError",
    "WorkLedger",
})


def __getattr__(name: str):
    if name in _EXECUTION_NAMES:
        from repro.experiments import execution

        return getattr(execution, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CellResult",
    "Coordinator",
    "CoordinatorServer",
    "HttpTransport",
    "InProcessTransport",
    "ParallelRunner",
    "PolicyFactory",
    "ScenarioResult",
    "ScenarioSpec",
    "ShardPlan",
    "SweepResults",
    "SweepWorker",
    "Transport",
    "TransportError",
    "WorkLedger",
    "cell_manifest",
    "default_policies",
    "manifest_digest",
    "merge_partials",
    "run_cell",
    "run_matrix",
    "run_scenario",
    "run_shard",
]
