"""Coordinator service: the work ledger served over a transport.

The long-lived side of the coordinator/worker architecture.  One
:class:`Coordinator` owns a :class:`~repro.experiments.execution.
leases.WorkLedger` and a :class:`~repro.experiments.results.
SweepResults` accumulator for one manifest, and exposes exactly the
four transport verbs:

- ``lease_request`` — expire overdue leases, grant a cost-aware batch.
- ``heartbeat`` — renew a lease.
- ``submit_partial`` — check a worker's partial with the same
  :func:`~repro.experiments.sharding.fold_partial` the shard merge
  path uses, then fold it into the accumulator *incrementally* and
  checkpoint every cell to the journal.
- ``status`` — live progress, per-worker counters, and (on request)
  the manifest itself, which is how workers bootstrap.

Trust boundary: the transport is untrusted.  Every submitted partial
embeds its manifest and the stored digest is re-verified against a
recomputation (a tampered artifact cannot slip in), the SoC must
match the coordinator's, the lease must still be live (a partial for
expired — hence possibly re-leased — work is refused), and the cells
must cover exactly the lease's slice.  Refusals raise ``ValueError``
with one-line messages; the HTTP server maps them to 400 responses.

Crash safety: the journal is the checksummed
:class:`~repro.experiments.sharding.CellJournal` — every accepted
cell/failure is appended (and flushed) the moment it folds in.  A
killed coordinator is re-served from its directory
(:func:`~repro.experiments.sharding.load_sweep_dir` plus
``Coordinator(acc=...)``), re-leasing only the cells without a
checkpointed result.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.config import SoCConfig
from repro.experiments.execution.leases import WorkLedger
from repro.experiments.results import SweepResults
from repro.experiments.sharding import (
    CellJournal,
    check_partial_shape,
    fold_partial,
    manifest_digest,
    manifest_specs,
)

__all__ = [
    "STATUS_FORMAT",
    "Coordinator",
    "CoordinatorServer",
]

#: Format tag of coordinator status documents.
STATUS_FORMAT = "repro-sweep-status/1"


# repro-lint: thread-shared lock=_lock guards=ledger,acc,workers
class Coordinator:
    """The work ledger plus incremental aggregation behind a lock.

    Thread-safe: the HTTP server handles each request on its own
    thread, so every verb serialises on one re-entrant lock — the
    ledger and accumulator stay single-writer value machines.

    Args:
        manifest: The sweep's cell manifest (round-trip validated).
        soc: Simulated hardware config; submissions recorded under a
            different SoC are refused (the manifest cannot see this).
        lease_ttl: Seconds between heartbeats before a lease expires;
            ``None`` disables expiry.
        max_lease_cost: Optional hard cap on a single lease's summed
            cell cost (the ``--lease-cost`` knob).
        out_dir: Directory to journal into (``cells.jsonl``); ``None``
            disables journaling (in-process tests/bench).
        acc: Pre-populated accumulator (the resume path).  Cells it
            already holds are marked completed in the ledger and never
            re-leased; its quarantined failures stay *leasable* — a
            resume re-runs them, and a fresh success supersedes.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        manifest: dict,
        soc: Optional[SoCConfig] = None,
        lease_ttl: Optional[float] = 30.0,
        max_lease_cost: Optional[int] = None,
        out_dir=None,
        acc: Optional[SweepResults] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        from repro.config import DEFAULT_SOC

        specs = manifest_specs(manifest)
        self.manifest = manifest
        self.digest = manifest_digest(manifest)
        self.soc = soc if soc is not None else DEFAULT_SOC
        self._soc_dict = dataclasses.asdict(self.soc)
        self.acc = (
            acc if acc is not None
            else SweepResults(specs, list(manifest["policies"]))
        )
        self.ledger = WorkLedger(
            manifest, lease_ttl=lease_ttl, clock=clock
        )
        self.max_lease_cost = max_lease_cost
        self._lock = threading.RLock()
        #: worker_id -> per-worker counters shown in status.
        self.workers: Dict[str, dict] = {}
        self._journal: Optional[CellJournal] = None
        self._started = clock()
        self._clock = clock
        for cell in self.acc.cells():
            self.ledger.complete(cell.index)
        # Quarantined failures from a previous session stay unleased:
        # serving again IS the resume, so they get re-run.
        if out_dir is not None:
            self._journal = CellJournal.open(
                out_dir, manifest, self.soc
            )

    # -- protocol verbs ------------------------------------------------

    def lease_request(self, worker_id: str) -> Optional[dict]:
        """Grant a batch of unleased cells (or ``None``)."""
        with self._lock:
            self.ledger.expire()
            lease = self.ledger.request_lease(
                worker_id, max_cost=self.max_lease_cost
            )
            record = self._worker_record(worker_id)
            if lease is None:
                return None
            record["leases"] += 1
            return {
                "lease_id": lease.lease_id,
                "worker_id": lease.worker_id,
                "cell_indices": list(lease.indices),
                "cost": lease.cost,
                "ttl": self.ledger.lease_ttl,
                "manifest_digest": self.digest,
            }

    def heartbeat(self, lease_id: int, worker_id: str) -> dict:
        """Renew a lease."""
        with self._lock:
            self.ledger.expire()
            self._worker_record(worker_id)["heartbeats"] += 1
            return {"ok": self.ledger.heartbeat(lease_id)}

    def submit_partial(self, partial: dict) -> dict:
        """Check and fold one submitted partial (the trust boundary).

        :func:`~repro.experiments.sharding.fold_partial` makes every
        refusal the shard merge path makes (tamper, sweep, SoC,
        slice, coverage, overlap) against the live lease's cells;
        the lease-specific rule on top is that the lease must still
        be live, so work that expired (and may have been re-leased)
        cannot double-fold.
        """
        with self._lock:
            check_partial_shape(partial, "lease")
            self.ledger.expire()
            lease = self.ledger.lease(partial["lease"]["lease_id"])
            if lease is None:
                raise ValueError(
                    f"lease {partial['lease']['lease_id']} "
                    f"({partial['lease']['worker_id']}): lease is not "
                    f"live (expired or already settled); its cells "
                    f"were re-leased — drop this partial"
                )
            cells, failures = fold_partial(
                self.acc, partial, "lease", lease.indices,
                self.digest, self._soc_dict,
            )
            for cell in cells:
                if self._journal is not None:
                    self._journal.append_cell(cell)
                self.ledger.complete(cell.index)
            for failure in failures:
                if self._journal is not None:
                    self._journal.append_failure(failure)
                self.ledger.quarantine(failure.index)
            record = self._worker_record(lease.worker_id)
            record["cells_completed"] += len(cells)
            record["cells_quarantined"] += len(failures)
            return {
                "accepted": len(cells),
                "quarantined": len(failures),
                "drained": self.ledger.drained,
            }

    def status(self, include_manifest: bool = False) -> dict:
        """The live status document.

        Always carries the digest and SoC (workers verify the trust
        boundary from these), the ledger counts, the completion
        flags, and per-worker counters.  ``include_manifest=True``
        adds the full manifest (the worker bootstrap path).
        """
        with self._lock:
            self.ledger.expire()
            counts = self.ledger.counts()
            doc = {
                "format": STATUS_FORMAT,
                "manifest_digest": self.digest,
                "soc": self._soc_dict,
                "expected": self.acc.expected,
                "completed": len(self.acc),
                "quarantined": len(self.acc.failed_indices()),
                "counts": counts,
                "drained": self.ledger.drained,
                "complete": self.acc.complete,
                "degraded": self.acc.degraded,
                "uptime_seconds": self._clock() - self._started,
                "workers": {
                    w: dict(r) for w, r in sorted(self.workers.items())
                },
            }
            if include_manifest:
                doc["manifest"] = self.manifest
            return doc

    # -- serving helpers -----------------------------------------------

    @property
    def drained(self) -> bool:
        """Whether every cell is settled (the serve loop's exit)."""
        with self._lock:
            return self.ledger.drained

    def expire_leases(self) -> int:
        """Expire overdue leases (the serve loop's periodic sweep);
        returns how many expired."""
        with self._lock:
            return len(self.ledger.expire())

    def progress_line(self) -> str:
        """One human-readable live-progress line for stderr."""
        with self._lock:
            counts = self.ledger.counts()
            return (
                f"coordinator: {counts['completed']}/"
                f"{len(self.ledger)} cells done, "
                f"{counts['leased']} leased "
                f"({counts['leases']} lease(s)), "
                f"{counts['unleased']} waiting, "
                f"{counts['quarantined']} quarantined, "
                f"{len(self.workers)} worker(s) seen"
            )

    def close(self) -> None:
        """Close the journal (leaving it on disk for resume)."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()

    def discard_journal(self) -> None:
        """Delete the journal — only once the sweep's export is
        complete (scaffolding must not make the export directory
        differ from a fault-free run's)."""
        with self._lock:
            if self._journal is not None:
                self._journal.discard()

    def _worker_record(self, worker_id: str) -> dict:
        record = self.workers.get(worker_id)
        if record is None:
            record = {
                "leases": 0,
                "heartbeats": 0,
                "cells_completed": 0,
                "cells_quarantined": 0,
            }
            self.workers[worker_id] = record
        return record


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes the four protocol verbs to the server's coordinator."""

    server_version = "repro-coordinator/1"
    protocol_version = "HTTP/1.1"

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                # rfile.read(-1) would block until the client hangs up.
                raise ValueError(length)
        except ValueError:
            return self._reply(
                400, {"error": "bad Content-Length header"}
            )
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError:
            return self._reply(
                400, {"error": "request body is not JSON"}
            )
        if not isinstance(payload, dict):
            return self._reply(
                400, {"error": "request body must be a JSON object"}
            )
        coordinator = self.server.coordinator
        try:
            if self.path == "/lease":
                worker = payload.get("worker")
                if not isinstance(worker, str) or not worker:
                    raise ValueError(
                        "lease request needs a non-empty 'worker' id"
                    )
                lease = coordinator.lease_request(worker)
                return self._reply(200, {"lease": lease})
            if self.path == "/heartbeat":
                lease_id = payload.get("lease_id")
                if not isinstance(lease_id, int) or isinstance(
                    lease_id, bool
                ):
                    raise ValueError(
                        "heartbeat needs an integer 'lease_id'"
                    )
                return self._reply(
                    200,
                    coordinator.heartbeat(
                        lease_id,
                        str(payload.get("worker", "anonymous")),
                    ),
                )
            if self.path == "/submit":
                return self._reply(
                    200, coordinator.submit_partial(payload)
                )
            if self.path == "/status":
                return self._reply(
                    200,
                    coordinator.status(
                        include_manifest=bool(
                            payload.get("include_manifest")
                        )
                    ),
                )
        except ValueError as exc:
            return self._reply(400, {"error": str(exc)})
        return self._reply(
            404, {"error": f"unknown endpoint {self.path}"}
        )

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/status":
            try:
                return self._reply(
                    200, self.server.coordinator.status()
                )
            except ValueError as exc:
                return self._reply(400, {"error": str(exc)})
        return self._reply(
            404, {"error": f"unknown endpoint {self.path}"}
        )

    def log_message(self, format: str, *args) -> None:
        """Silence per-request access logging (the serve loop prints
        a periodic progress line instead)."""


# repro-lint: thread-shared lock=_lock
class CoordinatorServer:
    """A :class:`Coordinator` on a threading HTTP server.

    Binds immediately (``port=0`` picks an ephemeral port — the bound
    :attr:`url` is known before :meth:`start`), serves on a daemon
    thread, and leaves request handling to
    :class:`_CoordinatorHandler`.  Stdlib only.

    :meth:`stop` is idempotent and safe to race with a late caller of
    :meth:`start` (both serialise on one lock): the serve thread is
    joined with a timeout, the socket is closed exactly once, and the
    discovery file — when the server was asked to
    :meth:`publish_discovery` one — is removed even when shutdown
    itself raises.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.coordinator = coordinator
        self._httpd = ThreadingHTTPServer(
            (host, port), _CoordinatorHandler
        )
        self._httpd.coordinator = coordinator
        self._httpd.daemon_threads = True
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]
        self.url = f"http://{self.host}:{self.port}"
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._discovery: Optional[Path] = None

    def start(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("server already stopped")
            if self._thread is not None:
                raise RuntimeError("server already started")
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="coordinator-http",
                daemon=True,
            )
            self._thread.start()

    def publish_discovery(self, path) -> None:
        """Write the discovery file (bound URL + manifest digest) and
        own its lifetime: :meth:`stop` removes it on every exit path,
        so scaffolding never leaks into the export directory even when
        the serve loop dies on an unexpected exception."""
        path = Path(path)
        path.write_text(
            json.dumps(
                {
                    "url": self.url,
                    "manifest_digest": self.coordinator.digest,
                },
                indent=2,
                sort_keys=True,
            ) + "\n"
        )
        with self._lock:
            self._discovery = path

    def stop(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._thread = None
            discovery = self._discovery
            self._discovery = None
        try:
            if thread is not None:
                self._httpd.shutdown()
                thread.join(timeout=10)
                if thread.is_alive():
                    warnings.warn(
                        "coordinator-http thread did not stop within "
                        "10s; socket will be closed under it",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            self._httpd.server_close()
        finally:
            # A worker request racing shutdown (or shutdown itself
            # raising) must not leak the discovery file: a stale URL
            # would point the next quickstart at a dead port.
            if discovery is not None:
                try:
                    discovery.unlink()
                except FileNotFoundError:
                    pass

    def __enter__(self) -> "CoordinatorServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
