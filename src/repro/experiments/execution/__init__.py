"""Coordinator/worker execution layer: dynamic lease-based sweeps.

Layers (each importable on its own):

- :mod:`~repro.experiments.execution.leases` — the work ledger:
  per-cell lease state over the manifest, cost-aware batches,
  heartbeat expiry.
- :mod:`~repro.experiments.execution.transport` — the transport
  seam: four protocol verbs, in-process and HTTP implementations.
- :mod:`~repro.experiments.execution.coordinator` — the ledger
  served: incremental aggregation, the journal, the HTTP server.
- :mod:`~repro.experiments.execution.worker` — the worker loop:
  lease → execute → submit → heartbeat until drained.

Workers execute their leases through the same
``ParallelRunner.run_supervised`` as local sweeps and static
``sweep --shard I/N`` runs, and submit the same partial document
(:func:`~repro.experiments.sharding.build_partial`) that the
coordinator checks and folds with the shard merge path's
:func:`~repro.experiments.sharding.fold_partial` — byte-identical
exports either way.
"""

from repro.experiments.execution.coordinator import (
    STATUS_FORMAT,
    Coordinator,
    CoordinatorServer,
)
from repro.experiments.execution.leases import (
    COMPLETED,
    LEASED,
    QUARANTINED,
    UNLEASED,
    Lease,
    WorkLedger,
)
from repro.experiments.execution.transport import (
    HttpTransport,
    InProcessTransport,
    Transport,
    TransportError,
)
from repro.experiments.execution.worker import (
    SweepWorker,
    default_worker_id,
)

__all__ = [
    "COMPLETED",
    "LEASED",
    "QUARANTINED",
    "STATUS_FORMAT",
    "UNLEASED",
    "Coordinator",
    "CoordinatorServer",
    "HttpTransport",
    "InProcessTransport",
    "Lease",
    "SweepWorker",
    "Transport",
    "TransportError",
    "WorkLedger",
    "default_worker_id",
]
