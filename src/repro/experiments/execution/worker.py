"""Worker loop: lease → execute → submit → heartbeat, until drained.

The short-lived side of the coordinator/worker architecture.  A
:class:`SweepWorker` knows nothing about the sweep until it
bootstraps: it asks the coordinator for the status document *with the
manifest*, verifies the SoC it was configured to simulate matches the
coordinator's (the trust boundary runs both ways — a worker must not
burn hours simulating the wrong hardware), then loops: request a
lease, execute its cells through
:meth:`~repro.experiments.parallel.ParallelRunner.run_supervised` —
the executor every other execution mode uses — submit the partial,
repeat.  While a
lease is executing, a background thread heartbeats at a third of the
lease TTL so slow cells do not get stolen out from under a live
worker.

Error taxonomy (mirrors the transport seam):

- :class:`~repro.experiments.execution.transport.TransportError` —
  retried with the :class:`~repro.experiments.parallel.Supervision`
  backoff schedule, up to ``max_transport_retries`` times per call;
  a coordinator restart mid-sweep is survivable.
- ``ValueError`` from a submit — the coordinator *refused* the
  partial (typically: the lease expired while the worker was stuck
  and the work was re-leased).  Never retried; the worker drops the
  orphaned results and asks for fresh work.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import sys
import threading
import time
from typing import Dict, Optional

from repro.config import SoCConfig
from repro.experiments.execution.transport import (
    Transport,
    TransportError,
)
from repro.experiments.parallel import ParallelRunner, Supervision
from repro.experiments.sharding import (
    build_partial,
    manifest_policies,
    manifest_specs,
)

__all__ = [
    "SweepWorker",
    "default_worker_id",
]


def default_worker_id() -> str:
    """hostname-pid: unique enough per machine, readable in status."""
    return f"{socket.gethostname()}-{os.getpid()}"


# repro-lint: thread-shared lock=none
class _HeartbeatThread(threading.Thread):
    """Renews one lease every ``interval`` seconds until stopped.

    Transport errors are swallowed (the next beat retries; the main
    loop owns hard failures).  A coordinator answering ``ok: False``
    marks the lease orphaned — the main loop learns the submit will
    be refused before paying for it.
    """

    def __init__(
        self,
        transport: Transport,
        lease_id: int,
        worker_id: str,
        interval: float,
    ) -> None:
        super().__init__(
            name=f"heartbeat-lease-{lease_id}", daemon=True
        )
        self._transport = transport
        self._lease_id = lease_id
        self._worker_id = worker_id
        self._interval = interval
        # NB: not "_stop" — threading.Thread defines that internally.
        self._halt = threading.Event()
        self.orphaned = False

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                reply = self._transport.heartbeat(
                    self._lease_id, self._worker_id
                )
            except (TransportError, ValueError):
                continue
            if not reply.get("ok", False):
                self.orphaned = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5)


class SweepWorker:
    """One worker draining a coordinator over a transport.

    Args:
        transport: In-process or HTTP transport to the coordinator.
        worker_id: Self-chosen identity shown in coordinator status;
            defaults to ``hostname-pid``.
        runner: Pre-built :class:`ParallelRunner`; one is built from
            ``workers`` otherwise.
        workers: Pool size when building the runner.
        policies: Policy factories by name (defaults to the paper's
            four); must cover every policy the manifest names.
        soc: The SoC this worker is configured to simulate; refused
            at bootstrap if it differs from the coordinator's.
        supervision: Per-cell retry/quarantine policy for execution
            (:meth:`ParallelRunner.run_supervised`); its backoff
            schedule is also reused for transport retries.  ``None``
            means :class:`Supervision`'s defaults.
        poll_interval: Sleep between lease requests while other
            workers still hold unfinished leases.
        max_transport_retries: Transport-error retries per protocol
            call before giving up (a dead coordinator should not hold
            a worker process forever).
    """

    def __init__(
        self,
        transport: Transport,
        worker_id: Optional[str] = None,
        runner: Optional[ParallelRunner] = None,
        workers: int = 1,
        policies: Optional[Dict[str, object]] = None,
        soc: Optional[SoCConfig] = None,
        supervision: Optional[Supervision] = None,
        poll_interval: float = 0.5,
        max_transport_retries: int = 5,
    ) -> None:
        from repro.config import DEFAULT_SOC

        self.transport = transport
        self.worker_id = worker_id or default_worker_id()
        self.runner = (
            runner if runner is not None
            else ParallelRunner(workers=workers or None)
        )
        self._policies_in = policies
        self.soc = soc if soc is not None else DEFAULT_SOC
        self._soc_dict = dataclasses.asdict(self.soc)
        self.supervision = supervision or Supervision()
        self.poll_interval = poll_interval
        self.max_transport_retries = max_transport_retries
        # Bootstrapped state (filled by _bootstrap):
        self.manifest: Optional[dict] = None
        self.specs = None
        self.policies: Optional[Dict[str, object]] = None

    # -- transport plumbing --------------------------------------------

    def _call(self, fn, *args, **kwargs):
        """One protocol call, retrying transport errors with the
        supervision backoff schedule.  Coordinator refusals
        (``ValueError``) pass straight through — they are never a
        wire problem."""
        attempt = 0
        while True:
            try:
                return fn(*args, **kwargs)
            except TransportError as exc:
                if attempt >= self.max_transport_retries:
                    raise
                delay = self.supervision.backoff(attempt)
                print(
                    f"worker {self.worker_id}: transport error "
                    f"({exc}); retrying in {delay:.1f}s",
                    file=sys.stderr,
                )
                time.sleep(delay)
                attempt += 1

    # -- bootstrap ------------------------------------------------------

    def _bootstrap(self) -> None:
        if self.manifest is not None:
            return
        status = self._call(
            self.transport.sweep_status, include_manifest=True
        )
        if status.get("soc") != self._soc_dict:
            raise ValueError(
                "coordinator is serving a different SoC "
                "configuration than this worker simulates; refusing "
                "to produce incompatible results"
            )
        manifest = status.get("manifest")
        if not isinstance(manifest, dict):
            raise ValueError(
                "coordinator status did not include the manifest"
            )
        self.specs = manifest_specs(manifest)
        self.policies = manifest_policies(manifest, self._policies_in)
        self.manifest = manifest

    # -- execution ------------------------------------------------------

    def _execute(self, lease: dict, heartbeats: bool = True) -> dict:
        """Execute one granted lease end-to-end; returns an outcome
        record (``status`` is ``submitted`` or ``refused``)."""
        indices = tuple(lease["cell_indices"])
        ttl = lease.get("ttl")
        beat: Optional[_HeartbeatThread] = None
        if heartbeats and ttl:
            beat = _HeartbeatThread(
                self.transport,
                lease["lease_id"],
                self.worker_id,
                interval=ttl / 3.0,
            )
            beat.start()
        t0 = time.perf_counter()
        try:
            acc = self.runner.run_supervised(
                self.specs, self.policies, self.soc, indices=indices,
                supervision=self.supervision,
            )
        finally:
            if beat is not None:
                beat.stop()
        seconds = time.perf_counter() - t0
        # One last heartbeat right before submitting: renews the
        # lease across the submit itself, even on short leases that
        # never saw a background beat.
        try:
            self._call(
                self.transport.heartbeat,
                lease["lease_id"],
                self.worker_id,
            )
        except TransportError:
            pass  # submit is the call that matters; let it decide.
        partial = build_partial(
            self.manifest,
            self.soc,
            "lease",
            {
                "lease_id": lease["lease_id"],
                "worker_id": self.worker_id,
                "cell_indices": list(indices),
            },
            acc.cells(),
            acc.failures(),
        )
        try:
            reply = self._call(self.transport.submit_partial, partial)
        except ValueError as exc:
            # The coordinator refused — usually: this lease expired
            # while we were stuck and the cells were re-leased.  The
            # results are orphaned; drop them and move on.
            print(
                f"worker {self.worker_id}: submit refused ({exc}); "
                f"dropping orphaned results for lease "
                f"{lease['lease_id']}",
                file=sys.stderr,
            )
            return {
                "status": "refused",
                "lease": lease,
                "cells": 0,
                "failures": 0,
                "seconds": seconds,
            }
        return {
            "status": "submitted",
            "lease": lease,
            "cells": reply.get("accepted", len(acc)),
            "failures": reply.get("quarantined", len(acc.failures())),
            "seconds": seconds,
        }

    def step(self, heartbeats: bool = False) -> Optional[dict]:
        """Lease and execute at most one batch; ``None`` when nothing
        is currently unleased.  The lease-efficiency test drives two
        workers alternately through this to measure per-lease cost
        without background threads in the timing."""
        self._bootstrap()
        lease = self._call(
            self.transport.lease_request, self.worker_id
        )
        if lease is None:
            return None
        return self._execute(lease, heartbeats=heartbeats)

    def run(self) -> dict:
        """Drain the coordinator; returns a summary dict.

        Loops lease → execute → submit until the coordinator reports
        ``drained``.  When nothing is unleased but other workers
        still hold live leases, polls — their work may yet expire
        and come back to steal.
        """
        self._bootstrap()
        summary = {
            "worker_id": self.worker_id,
            "leases": 0,
            "cells": 0,
            "failures": 0,
            "refused": 0,
        }
        while True:
            lease = self._call(
                self.transport.lease_request, self.worker_id
            )
            if lease is None:
                status = self._call(self.transport.sweep_status)
                if status.get("drained"):
                    break
                time.sleep(self.poll_interval)
                continue
            outcome = self._execute(lease)
            summary["leases"] += 1
            if outcome["status"] == "refused":
                summary["refused"] += 1
            else:
                summary["cells"] += outcome["cells"]
                summary["failures"] += outcome["failures"]
        return summary
