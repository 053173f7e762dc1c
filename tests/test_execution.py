"""Tests for the coordinator/worker execution layer
(repro.experiments.execution): work ledger, transports, coordinator
service, worker loop — and the lease-expiry determinism property the
ISSUE acceptance criteria pin against the export goldens.
"""

import dataclasses
import hashlib
import json
import random

import pytest
from test_parallel import RaisingPolicy

from repro.baselines import PremaPolicy
from repro.config import DEFAULT_SOC
from repro.experiments.execution import (
    COMPLETED,
    LEASED,
    QUARANTINED,
    UNLEASED,
    Coordinator,
    CoordinatorServer,
    HttpTransport,
    InProcessTransport,
    SweepWorker,
    TransportError,
    WorkLedger,
)
from repro.experiments.parallel import ParallelRunner, Supervision
from repro.experiments.results import (
    CellFailure,
    SweepResults,
    cell_from_dict,
    cell_manifest,
    failure_from_dict,
)
from repro.experiments.runner import ScenarioSpec
from repro.experiments.sharding import (
    ShardPlan,
    build_partial,
    load_sweep_dir,
    manifest_digest,
)
from repro.reporting import sweep_to_csv, sweep_to_json

#: Tiny but real: 1 scenario x 4 policies x 1 seed = 4 cells.
TINY_SPECS = [ScenarioSpec(workload_set="A", num_tasks=6, seeds=(1,))]

@pytest.fixture(scope="module")
def manifest():
    return cell_manifest(TINY_SPECS)


@pytest.fixture(scope="module")
def serial_matrix(serial_reference):
    return serial_reference(TINY_SPECS)


@pytest.fixture(scope="module")
def tiny_cells(manifest):
    """Every cell of the tiny manifest, computed once and reused to
    craft submissions without re-simulating."""
    acc = ParallelRunner(workers=1).run_supervised(TINY_SPECS)
    assert not acc.failures()
    return {c.index: c for c in acc.cells()}


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _lease_doc(lease):
    return {
        "lease_id": lease["lease_id"],
        "worker_id": lease["worker_id"],
        "cell_indices": list(lease["cell_indices"]),
    }


def _partial_for(manifest, lease, cells_by_index, failures=()):
    return build_partial(
        manifest,
        DEFAULT_SOC,
        "lease",
        _lease_doc(lease),
        [
            cells_by_index[i]
            for i in lease["cell_indices"]
            if i not in {f.index for f in failures}
        ],
        list(failures),
    )


def _failure_for(manifest, index, kind="error"):
    cell = manifest["cells"][index]
    label = manifest["scenarios"][cell["spec_index"]]["label"]
    return CellFailure(
        index=index,
        spec_index=cell["spec_index"],
        label=label,
        policy=cell["policy"],
        seed=cell["seed"],
        kind=kind,
        attempts=3,
        message="injected for test",
    )


# ----------------------------------------------------------------------
# Work ledger
# ----------------------------------------------------------------------


class TestWorkLedger:
    def test_initial_state(self, manifest):
        led = WorkLedger(manifest)
        assert len(led) == len(manifest["cells"])
        assert all(
            led.state(i) == UNLEASED for i in range(len(led))
        )
        assert not led.drained
        assert led.digest == manifest_digest(manifest)

    def test_lease_grants_costliest_first(self, manifest):
        led = WorkLedger(manifest, lease_ttl=None)
        lease = led.request_lease("w", max_cost=1)
        # max_cost below any cell cost still grants exactly one cell
        # — the costliest available (index 0 here: uniform costs tie-
        # break ascending).
        assert lease.indices == (0,)
        assert led.state(0) == LEASED

    def test_leases_are_exclusive_and_cover_everything(self, manifest):
        led = WorkLedger(manifest, lease_ttl=None)
        seen = []
        while True:
            lease = led.request_lease("w", max_cost=1)
            if lease is None:
                break
            seen.extend(lease.indices)
        assert sorted(seen) == list(range(len(led)))
        assert len(set(seen)) == len(seen)

    def test_default_batch_cost_spreads_total(self, manifest):
        led = WorkLedger(manifest)
        # 4 cells x cost 6 over 8 batches -> ceil(24/8) = 3, but
        # never below the costliest single cell (6).
        assert led.default_batch_cost() == 6

    def test_heartbeat_renews_and_rejects_unknown(self, manifest):
        clock = FakeClock()
        led = WorkLedger(manifest, lease_ttl=10.0, clock=clock)
        lease = led.request_lease("w")
        clock.advance(8.0)
        assert led.heartbeat(lease.lease_id)
        clock.advance(8.0)  # would be past the original deadline
        assert led.expire() == []
        assert not led.heartbeat(999)

    def test_expiry_returns_unsettled_cells(self, manifest):
        clock = FakeClock()
        led = WorkLedger(manifest, lease_ttl=5.0, clock=clock)
        lease = led.request_lease("w", max_cost=10_000)  # everything
        assert len(lease.indices) > 1
        led.complete(lease.indices[0])
        clock.advance(6.0)
        expired = led.expire()
        assert [e.lease_id for e in expired] == [lease.lease_id]
        assert led.state(lease.indices[0]) == COMPLETED
        for index in lease.indices[1:]:
            assert led.state(index) == UNLEASED
        # The freed cells are re-leasable by someone else.
        again = led.request_lease("thief")
        assert again is not None
        assert set(again.indices) <= set(lease.indices[1:]) | {
            i for i in range(len(led)) if led.state(i) == LEASED
        }

    def test_immortal_leases_never_expire(self, manifest):
        clock = FakeClock()
        led = WorkLedger(manifest, lease_ttl=None, clock=clock)
        led.request_lease("w")
        clock.advance(1e9)
        assert led.expire() == []

    def test_complete_refuses_duplicate(self, manifest):
        led = WorkLedger(manifest)
        led.complete(0)
        with pytest.raises(ValueError, match="already completed"):
            led.complete(0)
        with pytest.raises(ValueError, match="outside manifest"):
            led.complete(len(led))

    def test_quarantine_then_heal(self, manifest):
        led = WorkLedger(manifest)
        led.quarantine(1)
        assert led.state(1) == QUARANTINED
        led.complete(1)  # a later worker healed it
        assert led.state(1) == COMPLETED
        led.quarantine(1)  # completed never regresses
        assert led.state(1) == COMPLETED

    def test_drained(self, manifest):
        led = WorkLedger(manifest)
        for i in range(len(led) - 1):
            led.complete(i)
        assert not led.drained
        led.quarantine(len(led) - 1)
        assert led.drained

    def test_settled_lease_is_retired(self, manifest):
        led = WorkLedger(manifest, lease_ttl=None)
        lease = led.request_lease("w")
        for i in lease.indices:
            led.complete(i)
        assert led.lease(lease.lease_id) is None
        assert led.counts()["leases"] == 0

# ----------------------------------------------------------------------
# Coordinator (in-process transport)
# ----------------------------------------------------------------------


class TestCoordinator:
    def test_worker_drains_matches_serial(
        self, manifest, serial_matrix
    ):
        coord = Coordinator(manifest, lease_ttl=None)
        worker = SweepWorker(
            InProcessTransport(coord), worker_id="solo", workers=1
        )
        summary = worker.run()
        assert summary["cells"] == len(manifest["cells"])
        assert summary["refused"] == 0
        assert coord.acc.complete and coord.drained
        assert coord.acc.matrix() == serial_matrix

    def test_two_workers_split_the_manifest(
        self, manifest, serial_matrix, tiny_cells
    ):
        coord = Coordinator(manifest, lease_ttl=None)
        transport = InProcessTransport(coord)
        workers = [
            SweepWorker(transport, worker_id=w, workers=1)
            for w in ("alpha", "beta")
        ]
        # Alternate single steps so both demonstrably contribute.
        while not coord.drained:
            for worker in workers:
                worker.step()
        status = coord.status()
        assert set(status["workers"]) == {"alpha", "beta"}
        assert (
            status["workers"]["alpha"]["cells_completed"]
            + status["workers"]["beta"]["cells_completed"]
            == len(manifest["cells"])
        )
        assert coord.acc.matrix() == serial_matrix

    def test_submit_tampered_partial_refused(
        self, manifest, tiny_cells
    ):
        coord = Coordinator(manifest, lease_ttl=None)
        t = InProcessTransport(coord)
        lease = t.lease_request("w")
        partial = _partial_for(manifest, lease, tiny_cells)
        partial["manifest"] = json.loads(
            json.dumps(partial["manifest"])
        )
        partial["manifest"]["cells"][0]["seed"] = 999
        with pytest.raises(ValueError, match="tampered"):
            t.submit_partial(partial)
        # Nothing folded: the lease is still live and submittable.
        good = _partial_for(manifest, lease, tiny_cells)
        reply = t.submit_partial(good)
        assert reply["accepted"] == len(lease["cell_indices"])

    def test_submit_wrong_soc_refused(self, manifest, tiny_cells):
        coord = Coordinator(manifest, lease_ttl=None)
        t = InProcessTransport(coord)
        lease = t.lease_request("w")
        partial = _partial_for(manifest, lease, tiny_cells)
        partial["soc"] = dict(partial["soc"], num_tiles=99)
        with pytest.raises(ValueError, match="SoC"):
            t.submit_partial(partial)

    def test_submit_dead_lease_refused(self, manifest, tiny_cells):
        clock = FakeClock()
        coord = Coordinator(manifest, lease_ttl=5.0, clock=clock)
        t = InProcessTransport(coord)
        lease = t.lease_request("slow")
        clock.advance(10.0)
        # The expiry sweep runs on the next protocol call.
        thief = t.lease_request("thief")
        assert set(thief["cell_indices"]) & set(
            lease["cell_indices"]
        )
        with pytest.raises(ValueError, match="not live"):
            t.submit_partial(
                _partial_for(manifest, lease, tiny_cells)
            )
        assert not t.heartbeat(lease["lease_id"], "slow")["ok"]

    def test_submit_coverage_mismatch_refused(
        self, manifest, tiny_cells
    ):
        coord = Coordinator(manifest, lease_ttl=None)
        t = InProcessTransport(coord)
        lease = t.lease_request("w")
        partial = _partial_for(manifest, lease, tiny_cells)
        partial["cells"] = partial["cells"][:-1]  # truncated
        with pytest.raises(ValueError, match="do not match"):
            t.submit_partial(partial)

    def test_submit_wrong_slice_refused(self, manifest, tiny_cells):
        coord = Coordinator(manifest, lease_ttl=None)
        t = InProcessTransport(coord)
        lease = t.lease_request("w")
        doctored = dict(lease)
        doctored["cell_indices"] = list(lease["cell_indices"])[:-1]
        with pytest.raises(ValueError, match="declared slice"):
            t.submit_partial(
                _partial_for(manifest, doctored, tiny_cells)
            )

    def test_submit_mislabeled_cell_refused_whole(
        self, manifest, tiny_cells
    ):
        """A cell that does not sit where the manifest puts it is
        refused before anything folds: no cell of the batch reaches
        the accumulator, and the lease stays submittable."""
        coord = Coordinator(
            manifest, lease_ttl=None, max_lease_cost=10_000
        )
        t = InProcessTransport(coord)
        lease = t.lease_request("w")  # everything
        partial = _partial_for(manifest, lease, tiny_cells)
        partial["cells"][-1]["seed"] = 999
        with pytest.raises(ValueError, match="not the manifest's"):
            t.submit_partial(partial)
        assert len(coord.acc) == 0
        reply = t.submit_partial(_partial_for(manifest, lease, tiny_cells))
        assert reply["accepted"] == len(manifest["cells"])

    def test_submit_not_a_lease_partial_refused(self, manifest):
        coord = Coordinator(manifest, lease_ttl=None)
        with pytest.raises(ValueError, match="not a repro-sweep"):
            coord.submit_partial({"format": "something-else"})

    def test_quarantined_failure_degrades(self, manifest, tiny_cells):
        coord = Coordinator(
            manifest, lease_ttl=None, max_lease_cost=10_000
        )
        t = InProcessTransport(coord)
        lease = t.lease_request("w")  # everything
        failure = _failure_for(manifest, lease["cell_indices"][0])
        reply = t.submit_partial(
            _partial_for(manifest, lease, tiny_cells, [failure])
        )
        assert reply["quarantined"] == 1
        assert coord.drained
        assert not coord.acc.complete and coord.acc.degraded
        status = coord.status()
        assert status["degraded"] and status["drained"]
        assert status["quarantined"] == 1

    def test_status_includes_manifest_on_request(self, manifest):
        coord = Coordinator(manifest, lease_ttl=None)
        status = coord.status()
        assert "manifest" not in status
        assert status["expected"] == len(manifest["cells"])
        assert not status["drained"]
        assert coord.status(include_manifest=True)["manifest"] == (
            manifest
        )

    def test_worker_refuses_soc_mismatch(self, manifest):
        coord = Coordinator(manifest, lease_ttl=None)
        wrong = dataclasses.replace(DEFAULT_SOC, num_tiles=2)
        worker = SweepWorker(
            InProcessTransport(coord), worker_id="w", soc=wrong
        )
        with pytest.raises(ValueError, match="SoC"):
            worker.run()


class TestCoordinatorJournal:
    def test_killed_coordinator_resumes_only_missing(
        self, manifest, tiny_cells, tmp_path, serial_matrix
    ):
        coord = Coordinator(manifest, lease_ttl=None,
                            max_lease_cost=12, out_dir=tmp_path)
        t = InProcessTransport(coord)
        first = t.lease_request("w")
        t.submit_partial(_partial_for(manifest, first, tiny_cells))
        done = set(first["cell_indices"])
        # Simulate a SIGKILL: no close(), no discard — just drop it.
        del coord
        loaded, _specs, acc = load_sweep_dir(tmp_path)
        assert loaded == manifest
        resumed = Coordinator(
            loaded, lease_ttl=None, max_lease_cost=10_000,
            out_dir=tmp_path, acc=acc,
        )
        assert [
            i for i in range(len(manifest["cells"]))
            if resumed.ledger.state(i) == COMPLETED
        ] == sorted(done)
        # Only the missing cells get leased out again.
        t2 = InProcessTransport(resumed)
        lease = t2.lease_request("w2")
        assert sorted(lease["cell_indices"]) == sorted(
            set(range(len(manifest["cells"]))) - done
        )
        t2.submit_partial(_partial_for(manifest, lease, tiny_cells))
        assert resumed.acc.complete
        assert resumed.acc.matrix() == serial_matrix

    def test_foreign_journal_refused(self, manifest, tmp_path):
        other = cell_manifest(
            [ScenarioSpec(workload_set="A", num_tasks=7, seeds=(1,))]
        )
        Coordinator(other, lease_ttl=None, out_dir=tmp_path).close()
        with pytest.raises(ValueError, match="different sweep"):
            Coordinator(manifest, lease_ttl=None, out_dir=tmp_path)


# ----------------------------------------------------------------------
# Lease-expiry determinism (ISSUE satellite): any interleaving of
# worker deaths and re-leases yields byte-identical exports.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_setup():
    from test_reporting import GOLDEN_EXPORT_PATH, GOLDEN_EXPORT_SPECS

    manifest = cell_manifest(GOLDEN_EXPORT_SPECS)
    acc = ParallelRunner(workers=1).run_supervised(GOLDEN_EXPORT_SPECS)
    assert not acc.failures()
    golden = json.loads(GOLDEN_EXPORT_PATH.read_text())
    return manifest, {c.index: c for c in acc.cells()}, golden["digests"]


class TestLeaseExpiryDeterminism:
    @pytest.mark.parametrize("trial", range(4))
    def test_any_death_interleaving_matches_golden(
        self, golden_setup, trial
    ):
        """Workers lease, die (expiry), steal and re-submit in a
        seeded random interleaving; the merged exports must carry the
        same pinned digests as the serial golden run, every time.
        Cells are precomputed (cell execution is a pure function of
        the payload) so the property runs many interleavings without
        re-simulating."""
        manifest, cells_by_index, digests = golden_setup
        clock = FakeClock()
        coord = Coordinator(manifest, lease_ttl=5.0, clock=clock)
        t = InProcessTransport(coord)
        rng = random.Random(trial)
        while not coord.drained:
            worker = f"w{rng.randrange(3)}"
            coord.max_lease_cost = rng.choice([None, 1, 16, 64])
            lease = t.lease_request(worker)
            if lease is None:
                clock.advance(10.0)
                coord.expire_leases()
                continue
            roll = rng.random()
            if roll < 0.35:
                # Worker dies mid-lease: heartbeats stop, the TTL
                # runs out, the cells go back to the pool.
                clock.advance(10.0)
                coord.expire_leases()
                with pytest.raises(ValueError, match="not live"):
                    t.submit_partial(
                        _partial_for(manifest, lease, cells_by_index)
                    )
            else:
                t.submit_partial(
                    _partial_for(manifest, lease, cells_by_index)
                )
        assert coord.acc.complete
        matrix = coord.acc.matrix()
        actual = {
            "json": hashlib.sha256(
                sweep_to_json(matrix).encode()
            ).hexdigest()[:16],
            "csv": hashlib.sha256(
                sweep_to_csv(matrix).encode()
            ).hexdigest()[:16],
        }
        assert actual == digests


# ----------------------------------------------------------------------
# HTTP transport end-to-end
# ----------------------------------------------------------------------


class TestHttpTransport:
    def test_drain_over_http_with_worker_death(
        self, manifest, serial_matrix
    ):
        """One worker leases over HTTP and dies silently; a second
        worker steals the expired lease and drains the sweep to the
        exact serial matrix."""
        coord = Coordinator(manifest, lease_ttl=0.4)
        with CoordinatorServer(coord) as server:
            doomed = HttpTransport(server.url)
            stolen = doomed.lease_request("doomed")
            assert stolen is not None  # ...and never heard from again
            survivor = SweepWorker(
                HttpTransport(server.url),
                worker_id="survivor",
                workers=1,
                poll_interval=0.1,
            )
            summary = survivor.run()
        assert summary["cells"] == len(manifest["cells"])
        assert coord.acc.complete
        assert coord.acc.matrix() == serial_matrix
        status = coord.status()
        assert set(status["workers"]) >= {"doomed", "survivor"}

    def test_refusal_maps_to_value_error(self, manifest):
        coord = Coordinator(manifest, lease_ttl=None)
        with CoordinatorServer(coord) as server:
            t = HttpTransport(server.url)
            with pytest.raises(ValueError, match="not a repro-sweep"):
                t.submit_partial({"format": "nonsense"})
            with pytest.raises(ValueError, match="worker"):
                t._post("/lease", {})
            with pytest.raises(TransportError, match="HTTP 404"):
                t._post("/nonsense", {})

    def test_negative_content_length_refused(self, manifest):
        """A negative Content-Length gets a 400 at once: reading a
        body of length -1 would block the handler until the client
        hangs up, so a keep-alive client would get no reply."""
        import socket

        coord = Coordinator(manifest, lease_ttl=None)
        with CoordinatorServer(coord) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                sock.sendall(
                    b"POST /status HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: -1\r\n\r\n"
                )
                reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Content-Length" in reply

    def test_unreachable_coordinator_is_transport_error(self):
        t = HttpTransport("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(TransportError, match="unreachable"):
            t.sweep_status()

    def test_bad_url_refused(self):
        with pytest.raises(ValueError, match="http"):
            HttpTransport("ftp://example.com")

    def test_worker_survives_transport_blips(self, manifest):
        """A worker retries transport errors with backoff instead of
        dying — a flaky wire must not strand a lease."""
        coord = Coordinator(manifest, lease_ttl=None)
        inner = InProcessTransport(coord)

        class Flaky(InProcessTransport):
            def __init__(self):
                super().__init__(coord)
                self.failures = 2

            def lease_request(self, worker_id):
                if self.failures:
                    self.failures -= 1
                    raise TransportError("blip")
                return inner.lease_request(worker_id)

        worker = SweepWorker(
            Flaky(),
            worker_id="w",
            workers=1,
            supervision=Supervision(backoff_base=0.01),
        )
        summary = worker.run()
        assert summary["cells"] == len(manifest["cells"])


# ----------------------------------------------------------------------
# Server shutdown hardening
# ----------------------------------------------------------------------


class TestCoordinatorServerStop:
    def test_stop_is_idempotent(self, manifest):
        server = CoordinatorServer(Coordinator(manifest))
        server.start()
        server.stop()
        server.stop()  # second stop is a no-op, not a crash

    def test_stop_without_start(self, manifest):
        server = CoordinatorServer(Coordinator(manifest))
        server.stop()  # never started: still closes the socket

    def test_start_after_stop_refused(self, manifest):
        server = CoordinatorServer(Coordinator(manifest))
        server.start()
        server.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            server.start()

    def test_concurrent_stops_close_once(self, manifest):
        """stop() racing stop() from another thread: both return, the
        socket closes exactly once (no double-close error), and the
        discovery file is gone."""
        import threading

        server = CoordinatorServer(Coordinator(manifest))
        server.start()
        errors = []

        def stopper():
            try:
                server.stop()
            except Exception as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [
            threading.Thread(target=stopper) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_discovery_file_removed_on_stop(self, manifest, tmp_path):
        server = CoordinatorServer(Coordinator(manifest))
        server.start()
        discovery = tmp_path / "coordinator.json"
        server.publish_discovery(discovery)
        payload = json.loads(discovery.read_text())
        assert payload["url"] == server.url
        assert payload["manifest_digest"] == server.coordinator.digest
        server.stop()
        assert not discovery.exists()

    def test_discovery_removed_even_when_already_unlinked(
        self, manifest, tmp_path
    ):
        """A racing cleanup (or operator rm) deleting the file first
        must not turn stop() into a crash."""
        server = CoordinatorServer(Coordinator(manifest))
        server.start()
        discovery = tmp_path / "coordinator.json"
        server.publish_discovery(discovery)
        discovery.unlink()
        server.stop()  # no FileNotFoundError
        assert not discovery.exists()

    def test_requests_during_stop_do_not_leak_discovery(
        self, manifest, tmp_path
    ):
        """A worker hammering /status while stop() runs: the server
        stays coherent and the discovery file is still removed."""
        import threading

        server = CoordinatorServer(Coordinator(manifest))
        server.start()
        discovery = tmp_path / "coordinator.json"
        server.publish_discovery(discovery)
        transport = HttpTransport(server.url, timeout=1.0)
        halt = threading.Event()

        def hammer():
            while not halt.is_set():
                try:
                    transport.sweep_status()
                except (TransportError, ValueError):
                    return  # server went down mid-request: expected

        t = threading.Thread(target=hammer)
        t.start()
        try:
            server.stop()
        finally:
            halt.set()
            t.join(timeout=5)
        assert not t.is_alive()
        assert not discovery.exists()


# ----------------------------------------------------------------------
# Static sharding rides the same ledger
# ----------------------------------------------------------------------


class TestStaticShardsOnLedger:
    def test_run_shard_partial_unchanged(self, manifest):
        """The re-routed run_shard must emit byte-identical partial
        artifacts (slice, cost, digest) to the pre-refactor planner —
        the partial format is an on-disk compatibility surface."""
        from repro.experiments.sharding import run_shard

        plan = ShardPlan.from_manifest(manifest, 2)
        partial = run_shard(manifest, 1, 2)
        assert partial["shard"]["cell_indices"] == list(plan.shard(1))
        assert partial["shard"]["cost"] == plan.costs[1]
        assert partial["manifest_digest"] == plan.digest


@pytest.mark.slow
class TestLeaseEfficiency:
    def test_leasing_keeps_two_thirds_of_static_shard_efficiency(self):
        """Draining the reference matrix through two lease-stepping
        workers must keep >= 0.67 of the efficiency of two pre-planned
        shards: total shard wall time / total coordinator busy time.
        Stepping alternately puts every lease round trip inside the
        measured time without background heartbeat threads."""
        from repro.experiments.runner import standard_matrix
        from repro.experiments.sharding import run_shard

        manifest = cell_manifest(
            standard_matrix(num_tasks=120, seeds=(1, 2))
        )
        runner = ParallelRunner(workers=1)
        shard_seconds = sum(
            run_shard(manifest, i, 2, runner=runner)["shard"][
                "wall_seconds"
            ]
            for i in range(2)
        )
        coord = Coordinator(manifest, lease_ttl=None)
        transport = InProcessTransport(coord)
        workers = [
            SweepWorker(transport, worker_id=name, runner=runner)
            for name in ("a", "b")
        ]
        busy_seconds = 0.0
        while not coord.drained:
            outcomes = [worker.step() for worker in workers]
            assert any(outcomes), "nothing leasable yet not drained"
            busy_seconds += sum(o["seconds"] for o in outcomes if o)
        assert coord.acc.complete
        assert shard_seconds / busy_seconds >= 0.67


# ----------------------------------------------------------------------
# No supervision passed means the default supervision
# ----------------------------------------------------------------------


class TestDefaultSupervision:
    """``run_shard`` called without a supervision runs under
    ``Supervision()``: a poison cell is quarantined after the default
    retry budget instead of raising."""

    POLICIES = {"prema": PremaPolicy, "raising": RaisingPolicy}

    @pytest.fixture(autouse=True)
    def _no_backoff_sleep(self, monkeypatch):
        monkeypatch.setattr(Supervision, "backoff", lambda self, a: 0.0)

    def _check(self, cells, failures):
        assert [c.policy for c in cells] == ["prema"]
        (failure,) = failures
        assert failure.policy == "raising"
        assert failure.kind == "error"
        assert failure.attempts == Supervision().max_retries + 1
        assert "decide exploded" in failure.message

    def test_run_shard_quarantines_poison_cell(self):
        from repro.experiments.sharding import run_shard

        manifest = cell_manifest(TINY_SPECS, list(self.POLICIES))
        partial = run_shard(manifest, 0, 1, policies=self.POLICIES)
        self._check(
            [cell_from_dict(c) for c in partial["cells"]],
            [failure_from_dict(f) for f in partial["failures"]],
        )
