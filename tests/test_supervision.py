"""Tests for per-cell sweep supervision (ISSUE tentpole): retry
determinism, quarantine instead of abort, pool-crash recovery, cell
timeouts, and the serial fallback when a crashed pool cannot be
rebuilt, driven by the fault harness."""

from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import parallel
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import ParallelRunner, Supervision
from repro.experiments.results import SweepResults
from repro.experiments.runner import (
    POLICY_ORDER,
    ScenarioSpec,
)
from repro.sim.qos import QosLevel

SPEC = ScenarioSpec(
    workload_set="A", qos_level=QosLevel.MEDIUM, num_tasks=8,
    seeds=(1, 2),
)
#: 1 scenario x 4 policies x 2 seeds.
CELLS = len(POLICY_ORDER) * len(SPEC.seeds)

#: Fast deterministic backoff for tests.
FAST = dict(backoff_base=0.0)


@pytest.fixture(scope="module")
def serial_matrix(serial_reference):
    return serial_reference([SPEC])


def _supervised(plan=None, workers=1, **kwargs):
    sup = Supervision(fault_plan=plan, **{**FAST, **kwargs})
    runner = ParallelRunner(workers=workers)
    acc = runner.run_supervised([SPEC], supervision=sup)
    return runner, acc


class TestSupervisionPolicy:
    def test_backoff_schedule(self):
        sup = Supervision(backoff_base=0.5, backoff_factor=2.0)
        assert [sup.backoff(a) for a in range(3)] == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(cell_timeout=0.0),
            dict(cell_timeout=-1.0),
            dict(backoff_base=-0.1),
            dict(backoff_factor=0.0),
            # NaN slips past a bare "<= 0" check and inf overflows
            # time.sleep()/wait(): both are refused up front.
            dict(cell_timeout=float("nan")),
            dict(cell_timeout=float("inf")),
            dict(backoff_base=float("nan")),
            dict(backoff_base=float("inf")),
            dict(backoff_factor=float("nan")),
            dict(backoff_factor=float("inf")),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Supervision(**kwargs)


class TestSerialSupervision:
    def test_fault_free_identical_to_run_matrix(self, serial_matrix):
        _, acc = _supervised()
        assert acc.complete and not acc.degraded
        assert acc.matrix() == serial_matrix

    def test_transient_fault_retried_bit_identical(self, serial_matrix):
        """Retry determinism: a cell that failed transiently and was
        re-run yields exactly the result a clean run yields."""
        _, acc = _supervised(FaultPlan.parse("transient:cells=0,5"))
        assert acc.complete, acc.failures()
        assert acc.matrix() == serial_matrix

    def test_poison_cell_quarantined_not_raised(self):
        _, acc = _supervised(
            FaultPlan.parse("transient:cells=3:attempts=all"),
            max_retries=1,
        )
        assert not acc.complete and acc.degraded
        assert len(acc.cells()) == CELLS - 1
        (failure,) = acc.failures()
        assert failure.index == 3
        assert failure.kind == "error"
        assert failure.attempts == 2  # initial try + 1 retry
        assert "injected transient fault" in failure.message
        assert acc.missing_indices() == [3]

    def test_zero_retries_single_attempt(self):
        _, acc = _supervised(
            FaultPlan.parse("transient:cells=1"), max_retries=0
        )
        (failure,) = acc.failures()
        assert failure.attempts == 1

    def test_crash_plan_harmless_in_serial_mode(self, serial_matrix):
        """A pool-targeted crash/hang plan must not kill a serial
        run — the worker-only kinds are suppressed in-process."""
        _, acc = _supervised(
            FaultPlan.parse("crash:cells=0;hang:cells=1:seconds=3600")
        )
        assert acc.complete
        assert acc.matrix() == serial_matrix

    def test_resume_accumulator_skips_done_cells(self, serial_matrix):
        """The resume seam: cells already folded into the accumulator
        are not re-run."""
        runner = ParallelRunner(workers=1)
        first = runner.run_supervised(
            [SPEC],
            supervision=Supervision(
                fault_plan=FaultPlan.parse(
                    "transient:cells=2:attempts=all"
                ),
                max_retries=0,
                **FAST,
            ),
        )
        assert first.missing_indices() == [2]
        done_before = {c.index: c for c in first.cells()}
        seen = []
        acc = runner.run_supervised(
            [SPEC],
            indices=first.missing_indices(),
            acc=first,
            supervision=Supervision(**FAST),
            on_cell=lambda c: seen.append(c.index),
        )
        assert seen == [2]
        assert acc.complete
        assert acc.matrix() == serial_matrix
        for index, cell in done_before.items():
            assert acc.cells()[index] is cell  # untouched, not re-run


class SteppingPool:
    """Executor double built by a monkeypatched ``_make_pool``.

    Cells run in-process, one per :meth:`step` (the oldest pending
    first), so every schedule is deterministic.  ``crash`` maps a cell
    index to how many of its runs kill the "worker": such a run fails
    every pending future with ``BrokenProcessPool`` and breaks the
    pool, as a real worker death does.
    """

    def __init__(self, log, crash):
        self.log = log
        self.crash = crash
        self.pending = deque()
        self.broken = False

    def submit(self, fn, payload, attempt):
        if self.broken:
            raise BrokenProcessPool("pool already broken")
        future = Future()
        self.pending.append((future, fn, payload, attempt))
        self.log["max_inflight"] = max(
            self.log["max_inflight"], len(self.pending)
        )
        return future

    def step(self):
        if not self.pending:
            return
        alone = len(self.pending) == 1
        future, fn, payload, attempt = self.pending.popleft()
        index = payload[0]
        self.log["runs"].append((index, attempt, alone))
        if self.crash.get(index, 0) > 0:
            self.crash[index] -= 1
            self.broken = True
            exc = BrokenProcessPool("worker died")
            future.set_exception(exc)
            for other, *_ in self.pending:
                other.set_exception(exc)
            self.pending.clear()
        else:
            future.set_result(fn(payload, attempt))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _stepped(monkeypatch, crash=None, **kwargs):
    """Supervise a 2-worker sweep of SPEC on :class:`SteppingPool`s:
    every ``wait`` the supervisor makes first runs one pending cell."""
    log = {"max_inflight": 0, "runs": [], "pools": 0}
    crash = dict(crash or {})
    pools = []

    def make_pool(workers, spec_list, soc, fault_plan):
        log["pools"] += 1
        pools.append(SteppingPool(log, crash))
        return pools[-1]

    real_wait = parallel.wait

    def stepping_wait(fs, timeout=None, return_when="ALL_COMPLETED"):
        pools[-1].step()
        return real_wait(fs, timeout=timeout, return_when=return_when)

    runner = ParallelRunner(workers=2)
    monkeypatch.setattr(runner, "_make_pool", make_pool)
    monkeypatch.setattr(parallel, "wait", stepping_wait)
    acc = runner.run_supervised(
        [SPEC], supervision=Supervision(**{**FAST, **kwargs})
    )
    return acc, log


class TestInFlightWindow:
    def test_two_cells_per_worker_without_timeout(
        self, monkeypatch, serial_matrix
    ):
        acc, log = _stepped(monkeypatch)
        assert 2 < log["max_inflight"] <= 4
        assert acc.matrix() == serial_matrix

    def test_one_cell_per_worker_with_timeout(
        self, monkeypatch, serial_matrix
    ):
        acc, log = _stepped(monkeypatch, cell_timeout=60.0)
        assert log["max_inflight"] <= 2
        assert acc.matrix() == serial_matrix


class TestCrashIsolation:
    def test_only_the_cell_crashing_alone_is_charged(self, monkeypatch):
        """A crash takes down the cells queued behind the poison cell;
        they re-run alone uncharged, and only the poison cell spends
        its retry budget."""
        acc, log = _stepped(
            monkeypatch, crash={2: 99}, max_retries=1
        )
        assert len(acc.cells()) == CELLS - 1
        (failure,) = acc.failures()
        assert (failure.index, failure.kind, failure.attempts) == (
            2, "crash", 2
        )
        innocent_attempts = {
            attempt for index, attempt, _ in log["runs"] if index != 2
        }
        assert innocent_attempts == {0}
        # Cells 3-5 were pending when cell 2 first crashed the pool:
        # after cell 2 crashed again on its own, each ran alone.
        assert log["runs"][2:6] == [
            (2, 0, False), (2, 0, True), (3, 0, True), (4, 0, True),
        ]
        assert (5, 0, True) in log["runs"]

    def test_crash_not_reproduced_alone_charges_nobody(
        self, monkeypatch, serial_matrix
    ):
        acc, log = _stepped(monkeypatch, crash={2: 1}, max_retries=0)
        assert acc.complete, acc.failures()
        assert acc.matrix() == serial_matrix
        assert {attempt for _, attempt, _ in log["runs"]} == {0}
        assert log["pools"] == 2  # the original plus one rebuild


class TestRetainedCells:
    def test_pool_cells_share_one_object_per_name(self):
        """Cells unpickled from workers hold interned names, so a
        retained sweep keeps one string object per label, policy and
        priority group."""
        runner = ParallelRunner(workers=2)
        acc = runner.run_supervised([SPEC], supervision=Supervision())
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        cells = acc.cells()
        assert len({c.worker_pid for c in cells}) >= 1
        first, second = cells[0], cells[-1]
        assert first.label == second.label
        assert first.label is second.label
        keys = {}
        for cell in cells:
            assert cell.summary.policy is cell.policy
            for key in cell.summary.sla_by_group:
                assert keys.setdefault(key, key) is key


@pytest.mark.slow
class TestPoolSupervision:
    def test_worker_crash_recovered_bit_identical(self, serial_matrix):
        """An injected worker crash (BrokenProcessPool) is retried on
        a rebuilt pool; the finished sweep is bit-identical."""
        runner, acc = _supervised(
            FaultPlan.parse("crash:cells=2"), workers=2
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        assert acc.complete, acc.failures()
        assert acc.matrix() == serial_matrix

    def test_poison_crash_quarantined_others_finish(self):
        """Graceful degradation: a cell that crashes its worker on
        every attempt is quarantined; every healthy cell completes."""
        runner, acc = _supervised(
            FaultPlan.parse("crash:cells=2:attempts=all"),
            workers=2, max_retries=1,
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        assert acc.degraded
        assert len(acc.cells()) == CELLS - 1
        (failure,) = acc.failures()
        assert failure.index == 2
        assert failure.kind == "crash"

    def test_hung_cell_times_out_and_is_quarantined(self):
        runner, acc = _supervised(
            FaultPlan.parse("hang:cells=1:attempts=all:seconds=120"),
            workers=2, max_retries=0, cell_timeout=2.0,
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        assert len(acc.cells()) == CELLS - 1
        (failure,) = acc.failures()
        assert failure.index == 1
        assert failure.kind == "timeout"
        assert "wall-clock timeout" in failure.message

    def test_transient_faults_in_workers_retried(self, serial_matrix):
        runner, acc = _supervised(
            FaultPlan.parse("transient:rate=0.5:seed=11"), workers=2
        )
        assert acc.complete, acc.failures()
        assert acc.matrix() == serial_matrix


def _no_rebuild(monkeypatch, runner):
    """Let ``runner`` build its first pool but fail every rebuild, as
    a sandbox that cannot start another process would."""
    make_pool = runner._make_pool
    built = []

    def first_pool_only(*args):
        if built:
            raise OSError("no more processes")
        built.append(True)
        return make_pool(*args)

    monkeypatch.setattr(runner, "_make_pool", first_pool_only)


@pytest.mark.slow
class TestBrokenPoolFallback:
    def test_iter_cells_crash_falls_back_serial_bit_identical(
        self, serial_matrix, monkeypatch
    ):
        """ISSUE satellite: the mid-sweep BrokenProcessPool serial
        fallback, driven deterministically by the fault harness — the
        pool dies, cannot be rebuilt, the remainder reruns in-process,
        and the aggregate stays bit-identical."""
        plan = FaultPlan.parse("crash:cells=2:attempts=all")
        runner = ParallelRunner(workers=2)
        _no_rebuild(monkeypatch, runner)
        cells = runner.run_supervised(
            [SPEC], supervision=Supervision(fault_plan=plan, **FAST)
        ).cells()
        assert runner.last_mode == "serial"  # fallback engaged
        assert sorted(c.index for c in cells) == list(range(CELLS))
        acc = SweepResults([SPEC], list(POLICY_ORDER))
        for cell in cells:
            acc.add(cell)
        assert acc.matrix() == serial_matrix

    def test_fallback_cells_not_duplicated(self, monkeypatch):
        plan = FaultPlan.parse("crash:cells=0:attempts=all")
        runner = ParallelRunner(workers=2)
        _no_rebuild(monkeypatch, runner)
        indices = [
            c.index
            for c in runner.run_supervised(
                [SPEC], supervision=Supervision(fault_plan=plan, **FAST)
            ).cells()
        ]
        assert len(indices) == len(set(indices)) == CELLS
