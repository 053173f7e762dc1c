"""Transport seam between sweep workers and the coordinator.

The coordinator/worker protocol is four verbs — lease-request,
heartbeat, submit-partial, sweep-status — small enough that the
transport is an honest seam: :class:`InProcessTransport` calls the
coordinator directly (tests, single-host multi-pool runs, the bench
harness), :class:`HttpTransport` speaks JSON-over-HTTP to a
:class:`~repro.experiments.execution.coordinator.CoordinatorServer`
(stdlib ``urllib`` only — no new dependencies).

Error taxonomy — the part workers actually branch on:

- :class:`TransportError` — the *channel* failed (connection refused,
  timeout, 5xx).  Retryable: the worker backs off and tries again,
  reusing the :class:`~repro.experiments.parallel.Supervision`
  schedule.
- :class:`ValueError` — the coordinator *refused* the request (wrong
  manifest digest, dead lease, tampered partial…).  Never retried:
  the request is wrong, not the wire.  HTTP surfaces these as 400
  with the refusal message, and :class:`HttpTransport` re-raises them
  as ``ValueError`` so both transports present one error model.

The trust boundary sits behind this seam: everything a worker submits
is re-validated by the coordinator with the same digest/overlap/
tamper refusals the shard merge path enforces — the transport moves
bytes, it vouches for nothing.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Optional

__all__ = [
    "HttpTransport",
    "InProcessTransport",
    "Transport",
    "TransportError",
]


class TransportError(RuntimeError):
    """The transport channel failed (retryable; distinct from a
    coordinator refusal, which raises ``ValueError`` and must not be
    retried)."""


class Transport:
    """Abstract coordinator transport: the four protocol verbs."""

    def lease_request(self, worker_id: str) -> Optional[dict]:
        """Ask for work.  Returns a lease document (``lease_id``,
        ``worker_id``, ``cell_indices``, ``cost``, ``ttl``,
        ``manifest_digest``) or ``None`` when nothing is currently
        unleased."""
        raise NotImplementedError

    def heartbeat(self, lease_id: int, worker_id: str) -> dict:
        """Renew a lease.  Returns ``{"ok": bool}`` — ``False`` means
        the lease is no longer live (expired/re-leased); the worker's
        in-flight work is orphaned."""
        raise NotImplementedError

    def submit_partial(self, partial: dict) -> dict:
        """Deliver a partial with a ``lease`` section.  Returns ``{"accepted": N,
        "quarantined": M}``; raises ``ValueError`` on refusal."""
        raise NotImplementedError

    def sweep_status(self, include_manifest: bool = False) -> dict:
        """The coordinator's live status document (progress counts,
        ``drained``/``complete``/``degraded`` flags, per-worker
        counters; the full manifest when asked — workers bootstrap
        from it)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (no-op by default)."""


class InProcessTransport(Transport):
    """Direct calls into a coordinator living in this process."""

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator

    def lease_request(self, worker_id: str) -> Optional[dict]:
        return self.coordinator.lease_request(worker_id)

    def heartbeat(self, lease_id: int, worker_id: str) -> dict:
        return self.coordinator.heartbeat(lease_id, worker_id)

    def submit_partial(self, partial: dict) -> dict:
        return self.coordinator.submit_partial(partial)

    def sweep_status(self, include_manifest: bool = False) -> dict:
        return self.coordinator.status(
            include_manifest=include_manifest
        )


class HttpTransport(Transport):
    """JSON-over-HTTP client for a :class:`CoordinatorServer`.

    One POST per verb (``/lease``, ``/heartbeat``, ``/submit``,
    ``/status``), request and response bodies both JSON.  A 400
    response carries ``{"error": message}`` — the coordinator's
    refusal — and is re-raised as ``ValueError``; anything else that
    goes wrong on the wire (connection refused, timeout, 5xx, a
    non-JSON body) is a :class:`TransportError` and therefore
    retryable.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ValueError(
                f"coordinator URL must start with http:// or "
                f"https:// (got {base_url!r})"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _post(self, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            body = exc.read()
            if exc.code == 400:
                try:
                    message = json.loads(body)["error"]
                except (ValueError, KeyError, TypeError):
                    message = body.decode(errors="replace")
                raise ValueError(message) from None
            raise TransportError(
                f"coordinator returned HTTP {exc.code} for {path}"
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(
                f"coordinator unreachable at {self.base_url}{path} "
                f"({exc})"
            ) from exc
        try:
            return json.loads(body)
        except ValueError as exc:
            raise TransportError(
                f"coordinator sent a non-JSON response for {path}"
            ) from exc

    def lease_request(self, worker_id: str) -> Optional[dict]:
        return self._post("/lease", {"worker": worker_id}).get("lease")

    def heartbeat(self, lease_id: int, worker_id: str) -> dict:
        return self._post(
            "/heartbeat",
            {"lease_id": lease_id, "worker": worker_id},
        )

    def submit_partial(self, partial: dict) -> dict:
        return self._post("/submit", partial)

    def sweep_status(self, include_manifest: bool = False) -> dict:
        return self._post(
            "/status", {"include_manifest": include_manifest}
        )
