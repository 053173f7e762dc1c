"""Tests for repro.sanitizer (REPRO_CHECK=1 runtime cross-checks).

Three properties: sanitized mode is a *pure observer* (identical
results to an unchecked run), each hook actually catches an injected
violation of its invariant, and the errors are SanitizerError (an
AssertionError — always a bug, never user input)."""

from dataclasses import replace

import pytest

import repro.sanitizer as sanitizer
from repro.core.policy import MoCAPolicy
from repro.experiments.execution.leases import WorkLedger
from repro.experiments.results import cell_manifest
from repro.scenarios import ScenarioSpec
from repro.sim import reference
from repro.sim.engine import Simulator


@pytest.fixture()
def sanitized(monkeypatch):
    """Sanitized mode on for one test, off again after."""
    monkeypatch.setattr(sanitizer, "enabled", True)


@pytest.fixture()
def unsanitized(monkeypatch):
    monkeypatch.setattr(sanitizer, "enabled", False)


def _run(soc, mem, task_factory, n=4):
    tasks = [
        task_factory(task_id=f"t{i}", dispatch=50.0 * i)
        for i in range(n)
    ]
    policy = MoCAPolicy()
    policy.reset()
    sim = Simulator(soc, tasks, policy, mem=mem)
    outcome = sim.run()
    return sim, {
        r.task_id: (r.started_at, r.finished_at)
        for r in outcome.results
    }


TINY_MANIFEST_SPECS = [
    ScenarioSpec(workload_set="A", num_tasks=4, seeds=(1,))
]


def _ledger(**kwargs):
    manifest = cell_manifest(TINY_MANIFEST_SPECS)
    return WorkLedger(manifest, **kwargs)


class TestSwitch:
    def test_enable_disable_toggle(self):
        before = sanitizer.enabled
        try:
            sanitizer.enable()
            assert sanitizer.enabled
            sanitizer.disable()
            assert not sanitizer.enabled
        finally:
            sanitizer.enabled = before

    def test_env_seeding(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert sanitizer._env_enabled()
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not sanitizer._env_enabled()
        monkeypatch.delenv("REPRO_CHECK")
        assert not sanitizer._env_enabled()

    def test_sanitizer_error_is_assertion_error(self):
        assert issubclass(sanitizer.SanitizerError, AssertionError)
        with pytest.raises(AssertionError):
            sanitizer.require(False, "nope")


class TestPureObserver:
    def test_sanitized_run_identical_to_unchecked(
        self, soc, mem, task_factory, monkeypatch
    ):
        monkeypatch.setattr(sanitizer, "enabled", False)
        _, plain = _run(soc, mem, task_factory)
        monkeypatch.setattr(sanitizer, "enabled", True)
        sim, checked = _run(soc, mem, task_factory)
        assert checked == plain
        # The block-time spot-check actually ran (first epoch at
        # minimum) — identity above wasn't vacuous.
        assert sim._solve_checks >= 1


class TestSolverSpotCheck:
    def test_injected_divergence_caught(
        self, soc, mem, task_factory, sanitized, monkeypatch
    ):
        # Corrupt the reference side of the spot-check: the engine's
        # own solve is intact, so only the comparison can trip.
        monkeypatch.setattr(
            reference, "solve_block_times", lambda sim: {}
        )
        tasks = [task_factory(task_id=f"t{i}") for i in range(2)]
        sim = Simulator(soc, tasks, MoCAPolicy(), mem=mem)
        with pytest.raises(
            sanitizer.SanitizerError, match="block-time divergence"
        ):
            sim.run()

    def test_check_solver_agreement_reports_job_detail(self):
        with pytest.raises(
            sanitizer.SanitizerError, match="job 'a'"
        ):
            sanitizer.check_block_times(
                {"a": 1.0}, {"a": 2.0}, now=7.0
            )
        with pytest.raises(
            sanitizer.SanitizerError, match="missing jobs \\['b'\\]"
        ):
            sanitizer.check_block_times(
                {}, {"b": 2.0}, now=7.0
            )
        # Agreement is silent.
        sanitizer.check_block_times(
            {"a": 1.0}, {"a": 1.0}, now=7.0
        )


class TestIsolatedLatencyFloor:
    def _tasks(self, task_factory):
        # t1 claims an isolated latency no co-run can achieve.
        fast = task_factory(task_id="t1")
        return [
            task_factory(task_id="t0"),
            replace(fast, isolated_cycles=10.0 * fast.isolated_cycles),
        ]

    def test_task_faster_than_alone_caught(
        self, soc, mem, task_factory, sanitized
    ):
        sim = Simulator(
            soc, self._tasks(task_factory), MoCAPolicy(), mem=mem
        )
        with pytest.raises(
            sanitizer.SanitizerError,
            match="task 't1' finished in .* below its isolated latency",
        ):
            sim.run()

    def test_unchecked_mode_skips_the_floor(
        self, soc, mem, task_factory, unsanitized
    ):
        sim = Simulator(
            soc, self._tasks(task_factory), MoCAPolicy(), mem=mem
        )
        sim.run()  # no raise


class TestLedgerInvariants:
    def test_clean_lifecycle_passes(self, sanitized):
        ledger = _ledger(lease_ttl=None)
        while True:
            lease = ledger.request_lease("w1")
            if lease is None:
                break
            for index in lease.indices:
                ledger.complete(index)
        assert ledger.drained

    def test_corrupted_owner_map_caught(self, sanitized):
        ledger = _ledger(lease_ttl=None)
        lease = ledger.request_lease("w1")
        # Orphan a cell: owned by a lease id that was never issued.
        ledger._owner[lease.indices[0]] = 999
        with pytest.raises(
            sanitizer.SanitizerError, match="dead lease"
        ):
            ledger.heartbeat(lease.lease_id)

    def test_corrupted_state_caught(self, sanitized):
        ledger = _ledger(lease_ttl=None)
        lease = ledger.request_lease("w1")
        ledger._state[lease.indices[0]] = "gremlin"
        with pytest.raises(
            sanitizer.SanitizerError, match="invalid cell state"
        ):
            ledger.heartbeat(lease.lease_id)

    def test_owner_state_disagreement_caught(self, sanitized):
        ledger = _ledger(lease_ttl=None)
        lease = ledger.request_lease("w1")
        # A LEASED cell with no owner entry breaks the covering map.
        del ledger._owner[lease.indices[0]]
        with pytest.raises(
            sanitizer.SanitizerError, match="owner map"
        ):
            ledger.heartbeat(lease.lease_id)

    def test_unchecked_mode_never_checks(self, unsanitized):
        ledger = _ledger(lease_ttl=None)
        lease = ledger.request_lease("w1")
        ledger._owner[lease.indices[0]] = 999
        # No invariant pass, no raise: the corruption only surfaces
        # under REPRO_CHECK (or as downstream misbehaviour).
        ledger.heartbeat(lease.lease_id)
