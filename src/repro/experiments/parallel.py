"""Parallel experiment executor: fan the evaluation matrix over processes.

The paper's evaluation is a matrix of independent cells — one
``(scenario, policy, seed)`` triple per simulation — and every cell is
a pure function of its inputs (the workload generator reseeds from the
cell's seed, the engine is exactly deterministic).  That makes the
harness embarrassingly parallel, and this module exploits it with a
:class:`concurrent.futures.ProcessPoolExecutor`.

Execution model
---------------

:meth:`ParallelRunner.run_supervised` is the only way cells execute
locally.  It flattens ``specs x policies x seeds`` into indexed cell
payloads, submits them to the pool **one cell at a time** through a
bounded in-flight window, and folds each :class:`~repro.experiments.
results.CellResult` into a :class:`~repro.experiments.results.
SweepResults` the moment its future resolves — no barrier across the
sweep.  Completion order is nondeterministic in pool mode; every cell carries
its global submission index, so the accumulator assembles the same
deterministic ``{label: {policy: ScenarioResult}}`` matrix whatever
the arrival order.  ``workers=1`` runs the same per-cell loop
in-process; there, and in the serial fallback, cells of a
deadline-blind policy that differ only in SLA targets share one
simulation through a store local to the call (see
:func:`repro.experiments.runner.run_cell_detail`).  Pool workers get
no store: it lives in this process, and a lead and its followers are
dealt to whichever worker is free.  Every pool is built and shut down
by the call that uses it.  The library entry points
:func:`repro.experiments.runner.run_matrix` /
:func:`~repro.experiments.runner.run_scenario` are this executor with
``Supervision(max_retries=0)`` and a fail-fast ``on_failure``; the
CLI, shards and coordinator workers run it with real retry budgets.

Warm workers
------------

Every worker process is started with an initializer that pre-builds
the process-global network-cost cache and each network's runtime table
for the models of the sweep (:func:`repro.core.latency.
warm_network_cost_cache`).  Fork-start hosts inherit the parent's warm
caches anyway; on spawn-start hosts the initializer is what keeps each
cell from paying the cold-start that PR 1's review flagged.  Each
:class:`CellResult` carries cache hit/miss deltas, so warmth is
observable: a warm worker's cells report zero ``cost_cache_misses``.

Pickling constraints
--------------------

Everything crossing the process boundary must pickle: the
:class:`ScenarioSpec`, the :class:`SoCConfig` and each policy *factory*
(the class itself, not an instance).  The four built-in policies are
top-level classes and pickle fine; a lambda or closure factory does
not, and the runner detects this up front and **falls back to serial
in-process execution** (same cell code, same results) rather than
failing.  The fallback also engages for ``workers=1``, single-cell
matrices, sandboxes where process pools cannot start, and pools that
cannot be rebuilt after a crash (finished cells are kept; only the
remainder runs serially).
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.config import DEFAULT_SOC, SoCConfig
from repro.experiments import faults
from repro.experiments.faults import FaultPlan
from repro.experiments.results import (
    DECISION_COUNTER_FIELDS,
    CellFailure,
    CellResult,
    SweepResults,
)
from repro.experiments.runner import (
    PolicyFactory,
    ScenarioResult,
    ScenarioSpec,
    TimelineStore,
    check_unique_labels,
    default_policies,
    run_cell_detail,
)
from repro.scenarios import ScenarioLike, resolve_scenarios

#: One unit of parallel work: (global cell index, spec index, spec,
#: policy name, policy factory, seed, SoC).  The global index is the
#: deterministic aggregation key; the spec index disambiguates
#: duplicate labels.
_CellPayload = Tuple[
    int, int, ScenarioSpec, str, PolicyFactory, int, SoCConfig,
]


@dataclass(frozen=True)
class Supervision:
    """Per-cell failure-handling policy for :meth:`ParallelRunner.
    run_supervised`.

    Attributes:
        max_retries: Re-executions granted to a failing cell beyond
            its first attempt; a cell failing ``max_retries + 1``
            times is quarantined as a :class:`~repro.experiments.
            results.CellFailure` instead of aborting the sweep.
        cell_timeout: Wall-clock seconds a cell may run inside its
            worker before it is declared hung; ``None`` disables the
            timeout.  Timeouts are only enforceable in pool mode (a
            serial in-process cell cannot be interrupted), and setting
            one narrows the pool's in-flight window from two cells per
            worker to one (see :meth:`ParallelRunner._supervise_pool`).
        backoff_base: First retry delay in seconds; retry ``n`` waits
            ``backoff_base * backoff_factor**n``.  Deterministic (no
            jitter) — reproducibility extends to the retry schedule.
        backoff_factor: Exponential backoff multiplier.
        fault_plan: Deterministic fault injection to install in the
            workers (and, for in-process-safe kinds, the parent) —
            the testing seam of :mod:`repro.experiments.faults`.
    """

    max_retries: int = 2
    cell_timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # NaN fails every comparison, so each range check below also
        # refuses it; inf would overflow time.sleep() and wait().
        if self.cell_timeout is not None and not (
            0 < self.cell_timeout < math.inf
        ):
            raise ValueError("cell_timeout must be positive and finite")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError("backoff_base must be >= 0 and finite")
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ValueError("backoff_factor must be >= 1 and finite")

    def backoff(self, attempt: int) -> float:
        """Delay before re-running a cell whose attempt ``attempt``
        failed."""
        return self.backoff_base * self.backoff_factor ** attempt


def _run_cell(
    payload: _CellPayload,
    attempt: int = 0,
    timelines: Optional[TimelineStore] = None,
) -> CellResult:
    """Execute one matrix cell (in a pool worker, or in-process for
    serial runs).

    Delegates to :func:`repro.experiments.runner.run_cell_detail` and
    wraps the summary with timing, engine/decision counters
    and cache telemetry (a per-cell delta frame spanning the whole
    cell, generation included, so warm-cache behaviour is observable
    from the parent and concurrent accounting in the same process —
    e.g. the broken-pool serial fallback rerunning cells in the
    parent — cannot double-count).

    ``attempt`` is the supervised executor's retry counter; it feeds
    the (single) fault-injection point and nothing else — the cell's
    simulation is a pure function of the payload, so a retried cell
    returns exactly the result the first attempt would have.

    ``timelines`` is the sweep's store of deadline-blind runs, passed
    on to ``run_cell_detail`` (the in-process paths only).
    """
    from repro.core.latency import track_cache_deltas

    index, spec_idx, spec, policy_name, factory, seed, soc = payload
    faults.maybe_inject(index, attempt)
    t0 = time.perf_counter()
    with track_cache_deltas() as cache_delta:
        summary, sim_result = run_cell_detail(
            spec, policy_name, factory, seed, soc, timelines=timelines
        )
    seconds = time.perf_counter() - t0
    return CellResult(
        index=index,
        spec_index=spec_idx,
        label=spec.label,
        policy=policy_name,
        seed=seed,
        summary=summary,
        seconds=seconds,
        worker_pid=os.getpid(),
        **cache_delta,
        **{
            name: getattr(sim_result, name)
            for name in DECISION_COUNTER_FIELDS
        },
    )


def _warm_worker(
    model_names: Sequence[str],
    soc: SoCConfig,
    fault_plan: Optional[FaultPlan] = None,
) -> int:
    """Pool initializer: pre-warm this worker's cost/predict caches.

    Runs once per worker process before it takes any cell; idempotent
    (re-running is a pure cache hit).

    ``fault_plan`` activates deterministic fault injection *in this
    worker* (the per-cell harness of :mod:`repro.experiments.faults`);
    installing it here — rather than per payload — means every cell
    the worker ever runs consults the same plan, spawn or fork alike.
    """
    from repro.core.latency import warm_network_cost_cache
    from repro.models.zoo import build_model

    faults.install_plan(fault_plan, in_worker=True)
    return warm_network_cost_cache(
        [build_model(name) for name in model_names], soc
    )


def _spec_model_names(specs: Sequence[ScenarioSpec]) -> Tuple[str, ...]:
    """Distinct zoo model names the sweep's cells will build."""
    from repro.models.zoo import WORKLOAD_SETS

    names: Set[str] = set()
    for spec in specs:
        if spec.model_mix is not None:
            names.update(name for name, _ in spec.model_mix)
        else:
            names.update(WORKLOAD_SETS[spec.workload_set.upper()])
    return tuple(sorted(names))


def matrices_identical(
    a: Dict[str, Dict[str, ScenarioResult]],
    b: Dict[str, Dict[str, ScenarioResult]],
) -> bool:
    """Whether two matrix results carry identical metric summaries.

    The serial and parallel executors must agree bit-for-bit; this is
    the one comparison used by the smoke script, the perf benchmark
    and any caller wanting to assert the equivalence.  Compare a
    single scenario cell by wrapping it: ``{label: cell}``.
    """
    if set(a) != set(b):
        return False
    for label, cell in a.items():
        if set(cell) != set(b[label]):
            return False
        for policy, result in cell.items():
            if result.per_seed != b[label][policy].per_seed:
                return False
    return True


def _picklable(obj: object) -> bool:
    """Whether ``obj`` survives the process boundary."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


class ParallelRunner:
    """Run evaluation matrices across a process pool.

    Attributes:
        workers: Worker process count; ``None`` auto-sizes to the CPU
            count.  ``1`` always runs serially in-process.
        last_mode: ``"parallel"`` or ``"serial"`` — which path the most
            recent :meth:`run_supervised` call actually took (a pool
            that could not be rebuilt mid-sweep reports ``"serial"``,
            the degraded mode the remainder ran in).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.last_mode: str = "serial"
        #: Always 0 (no pool warm-up can time out); kept because
        #: perfbench's sweep harness reads it.
        self.total_warmup_timeouts = 0

    def _make_pool(
        self,
        workers: int,
        spec_list: Sequence[ScenarioSpec],
        soc: SoCConfig,
        fault_plan: Optional[FaultPlan],
    ) -> ProcessPoolExecutor:
        if spec_list or fault_plan is not None:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_warm_worker,
                initargs=(
                    _spec_model_names(spec_list),
                    soc,
                    fault_plan,
                ),
            )
        return ProcessPoolExecutor(max_workers=workers)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even if a worker is wedged.

        ``shutdown`` alone would join a hung worker forever; after
        cancelling what has not started, any worker process still
        alive is terminated outright.  Reaches into executor
        internals (``_processes``, read before ``shutdown`` clears
        it) — guarded, and acceptable for a pool that is already
        being discarded for cause.
        """
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        try:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run_supervised(
        self,
        specs: Sequence[ScenarioLike],
        policies: Optional[Dict[str, PolicyFactory]] = None,
        soc: Optional[SoCConfig] = None,
        indices: Optional[Sequence[int]] = None,
        supervision: Optional[Supervision] = None,
        acc: Optional[SweepResults] = None,
        on_cell=None,
        on_failure=None,
    ) -> SweepResults:
        """Run the sweep under per-cell supervision; never abort it.

        The one local executor (every ``workers`` value, serial
        included): every cell gets a bounded retry
        budget with exponential backoff, an optional wall-clock
        timeout, and — when the budget is exhausted — quarantine as a
        structured :class:`~repro.experiments.results.CellFailure`
        instead of an exception unwinding the whole sweep.  Failure
        handling by class:

        - **Cell errors** (the simulation raised): retried from the
          cell's spec after a deterministic backoff.  Retry
          determinism holds because a cell is a pure function of its
          payload — a retried cell yields bit-identical results to a
          first-try success, so supervision never perturbs exports.
        - **Worker crashes** (``BrokenProcessPool``): the pool is
          rebuilt and the crash attributed by isolation — every cell
          that was in flight re-runs alone, uncharged, and only one
          that crashes while running alone is charged an attempt.
          Innocents therefore never spend retry budget on a
          neighbour's crash.  If the pool cannot be rebuilt at all,
          the remainder drains serially in-process under the same
          retry ledger (and :attr:`last_mode` reports ``"serial"``).
        - **Timeouts** (``supervision.cell_timeout``): the hung
          worker's pool is torn down (hung workers never release
          their slot voluntarily), the expired cell is charged an
          attempt, and blameless in-flight cells are re-run without
          charge.  Unenforceable in serial mode, where a cell cannot
          be interrupted.

        Args:
            specs: Scenario specs and/or registry names.
            policies: Policy factories by name (defaults to the
                paper's four).
            soc: SoC configuration (default reference SoC).
            indices: Restricts execution to a subset of the sweep's
                global cell indices — the seam shard and lease
                execution ride on.  The cells keep their *global*
                indices (a shard's cells slot straight into the full
                sweep's accumulator); unknown or duplicate indices
                are rejected.
            supervision: The retry/timeout/backoff/fault policy
                (defaults to :class:`Supervision`'s defaults).  Its
                ``fault_plan`` is installed in every worker via the
                pool initializer, and in this process for the
                in-process-safe fault kinds.
            acc: Accumulator to fold into (for resume: pre-populated
                with previously completed cells); a fresh one is
                built when omitted.
            on_cell / on_failure: Optional callbacks invoked the
                moment each cell result / quarantined failure is
                folded in — the checkpoint-journal seam.
                ``on_failure(failure, exc)`` also receives the
                exception that ended the cell's last attempt
                (``None`` for a timeout).  An ``on_failure`` that
                raises aborts the sweep; that is how
                :func:`repro.experiments.runner.run_matrix` fails
                fast.

        Returns:
            The accumulator.  ``acc.complete`` means every cell
            succeeded; ``acc.degraded`` means quarantined failures
            remain (``acc.failures()`` lists them, and a resume can
            re-run ``acc.missing_indices()``).
        """
        sup = supervision if supervision is not None else Supervision()
        spec_list, policies, soc, payloads = self._build_payloads(
            specs, policies, soc, indices
        )
        if acc is None:
            acc = SweepResults(spec_list, list(policies))
        payloads = [p for p in payloads if not acc.has_cell(p[0])]

        def record_cell(cell: CellResult) -> None:
            acc.add(cell)
            if on_cell is not None:
                on_cell(cell)

        def quarantine(
            payload: _CellPayload, attempts: int, kind: str,
            message: str, exc: Optional[BaseException],
        ) -> None:
            failure = CellFailure(
                index=payload[0],
                spec_index=payload[1],
                label=payload[2].label,
                policy=payload[3],
                seed=payload[5],
                kind=kind,
                attempts=attempts,
                message=message,
            )
            acc.add_failure(failure)
            if on_failure is not None:
                on_failure(failure, exc)
            print(
                f"parallel: quarantined cell {failure.index} "
                f"({failure.label}/{failure.policy}/seed "
                f"{failure.seed}) after {attempts} attempt(s): "
                f"[{kind}] {message}",
                file=sys.stderr,
            )

        if sup.fault_plan is not None:
            # In-process activation for the serial path and the
            # serial fallback; crash/hang are worker-only by design.
            faults.install_plan(sup.fault_plan, in_worker=False)
        try:
            # Only the policy factories can realistically fail to
            # pickle (specs and SoCs are frozen dataclasses of
            # primitives), so probe the distinct factories — by
            # identity, since a factory need not be hashable.
            factories = tuple(
                {id(p[4]): p[4] for p in payloads}.values()
            )
            remaining: List[Tuple[_CellPayload, int]] = [
                (p, 0) for p in payloads
            ]
            self.last_mode = "serial"
            if (
                self.workers > 1
                and len(payloads) > 1
                and _picklable(factories)
            ):
                remaining = self._supervise_pool(
                    remaining, spec_list, soc, sup,
                    record_cell, quarantine,
                )
                if remaining:
                    # The pool could not be (re)built: the remainder
                    # drains in-process.
                    self.last_mode = "serial"
            # Deadline-blind runs are shared only among this call's
            # in-process cells; the store lives in this process, not
            # in the pool's workers.
            timelines: TimelineStore = {}
            for payload, attempt in remaining:
                self._supervise_serial(
                    payload, attempt, sup, record_cell, quarantine,
                    timelines,
                )
        finally:
            if sup.fault_plan is not None:
                faults.clear_plan()
        return acc

    def _supervise_serial(
        self,
        payload: _CellPayload,
        attempt: int,
        sup: Supervision,
        record_cell,
        quarantine,
        timelines: TimelineStore,
    ) -> None:
        """Run one cell in-process under the retry ledger.

        Timeouts are unenforceable here (no process boundary to kill
        across); error retries and quarantine work identically to the
        pool path.
        """
        while True:
            try:
                cell = _run_cell(payload, attempt, timelines)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if attempt >= sup.max_retries:
                    quarantine(
                        payload, attempt + 1, "error",
                        f"{type(exc).__name__}: {exc}", exc,
                    )
                    return
                delay = sup.backoff(attempt)
                if delay:
                    time.sleep(delay)
                attempt += 1
            else:
                record_cell(cell)
                return

    def _supervise_pool(
        self,
        work: List[Tuple[_CellPayload, int]],
        spec_list: Sequence[ScenarioSpec],
        soc: SoCConfig,
        sup: Supervision,
        record_cell,
        quarantine,
    ) -> List[Tuple[_CellPayload, int]]:
        """Pool half of :meth:`run_supervised`.

        Cells are submitted individually (supervision granularity is
        one cell) through a bounded in-flight window:

        - Without a cell timeout (the default) the window is **two
          cells per worker**.  Each worker then has its next cell
          queued and starts it the moment it finishes the previous
          one, while the parent folds the result; with one cell per
          worker it would sit idle for every result -> parent ->
          next-submit round trip.
        - With ``sup.cell_timeout`` set the window is **one cell per
          worker**.  The deadline is stamped at submission, and it is
          only a faithful *cell* timeout if the cell starts promptly;
          a queued cell would spend its budget waiting for its
          predecessor.

        Crashes are attributed by isolation.  A ``BrokenProcessPool``
        takes down every cell in flight without naming the one that
        killed the worker, so those cells become uncharged suspects.
        On the rebuilt pool the suspects re-run one at a time before
        any other cell, and only a cell that crashes while it is the
        only one in flight is charged an attempt.

        Returns the work that still needs the serial fallback (empty
        unless the pool could not be (re)built); each entry keeps its
        retry-ledger attempt count.
        """
        from collections import deque

        queue = deque(work)
        #: Cells a crash took down, each awaiting a run on its own.
        suspects: deque = deque()
        workers = min(self.workers, max(len(queue), 1), 61)
        try:
            pool = self._make_pool(workers, spec_list, soc, sup.fault_plan)
        except OSError as exc:
            print(
                f"parallel: process pool unavailable "
                f"({type(exc).__name__}: {exc}); supervising "
                f"{len(queue)} cells serially",
                file=sys.stderr,
            )
            return list(queue)
        self.last_mode = "parallel"
        window = workers if sup.cell_timeout is not None else 2 * workers
        #: future -> (payload, attempt, deadline or None)
        inflight: Dict[object, Tuple[_CellPayload, int, Optional[float]]] = {}

        def charge(
            payload: _CellPayload, attempt: int, kind: str,
            message: str, exc: Optional[BaseException],
        ) -> None:
            """Count a failed attempt: retry after backoff, or
            quarantine once the budget is spent."""
            if attempt >= sup.max_retries:
                quarantine(payload, attempt + 1, kind, message, exc)
                return
            delay = sup.backoff(attempt)
            if delay:
                time.sleep(delay)
            queue.append((payload, attempt + 1))

        def submit(source: deque) -> bool:
            """Submit the head of ``source``; False (and the cell put
            back) if the pool is already broken."""
            payload, attempt = source.popleft()
            deadline = (
                time.monotonic() + sup.cell_timeout
                if sup.cell_timeout is not None else None
            )
            try:
                future = pool.submit(_run_cell, payload, attempt)
            except BrokenProcessPool:
                source.appendleft((payload, attempt))
                return False
            inflight[future] = (payload, attempt, deadline)
            return True

        def replace_pool(reason: str):
            """Discard the (broken or hung) pool; build a successor."""
            self._terminate_pool(pool)
            try:
                return self._make_pool(
                    workers, spec_list, soc, sup.fault_plan
                )
            except OSError as exc:
                print(
                    f"parallel: could not rebuild pool after {reason} "
                    f"({type(exc).__name__}: {exc}); draining "
                    f"remaining cells serially",
                    file=sys.stderr,
                )
                return None

        try:
            while queue or suspects or inflight:
                broken = False
                if suspects:
                    if not inflight:
                        broken = not submit(suspects)
                else:
                    while queue and len(inflight) < window and not broken:
                        broken = not submit(queue)
                if not broken:
                    deadlines = [
                        d for (_, _, d) in inflight.values() if d is not None
                    ]
                    wait_timeout = (
                        max(0.0, min(deadlines) - time.monotonic())
                        if deadlines else None
                    )
                    done, _ = wait(
                        set(inflight), timeout=wait_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    broken = any(
                        isinstance(f.exception(), BrokenProcessPool)
                        for f in done
                    )
                if broken:
                    # A broken pool fails every pending future; collect
                    # them all.  Only a cell that was in flight alone
                    # is known to have crashed the worker.
                    done, _ = wait(set(inflight))
                alone = len(inflight) == 1
                # Submission order keeps the suspect queue deterministic.
                for future in [f for f in inflight if f in done]:
                    payload, attempt, _deadline = inflight.pop(future)
                    try:
                        cell = future.result()
                    except BrokenProcessPool as exc:
                        if alone:
                            charge(
                                payload, attempt, "crash",
                                f"{type(exc).__name__}: {exc}", exc,
                            )
                        else:
                            suspects.append((payload, attempt))
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:
                        charge(
                            payload, attempt, "error",
                            f"{type(exc).__name__}: {exc}", exc,
                        )
                    else:
                        record_cell(cell)
                if broken:
                    pool = replace_pool("worker crash")
                    if pool is None:
                        return list(suspects) + list(queue)
                    continue
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, _, d) in inflight.items()
                    if d is not None and now >= d
                ]
                if expired:
                    # A hung worker never yields its slot; kill the
                    # whole pool.  Only the expired cells are charged
                    # an attempt — blameless in-flight cells re-run
                    # at their current count.
                    for future in expired:
                        payload, attempt, _deadline = inflight.pop(
                            future
                        )
                        charge(
                            payload, attempt, "timeout",
                            f"cell exceeded the {sup.cell_timeout}s "
                            f"wall-clock timeout", None,
                        )
                    for payload, attempt, _deadline in inflight.values():
                        queue.append((payload, attempt))
                    inflight.clear()
                    pool = replace_pool("cell timeout")
                    if pool is None:
                        return list(suspects) + list(queue)
            return []
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------

    def _build_payloads(
        self,
        specs: Sequence[ScenarioLike],
        policies: Optional[Dict[str, PolicyFactory]],
        soc: Optional[SoCConfig],
        indices: Optional[Sequence[int]],
    ):
        """Resolve the sweep into indexed cell payloads."""
        if policies is None:
            policies = default_policies()
        if soc is None:
            soc = DEFAULT_SOC
        spec_list = resolve_scenarios(specs)
        check_unique_labels(spec_list)
        cells = [
            (spec_idx, spec, name, factory, seed)
            for spec_idx, spec in enumerate(spec_list)
            for name, factory in policies.items()
            for seed in spec.seeds
        ]
        payloads: List[_CellPayload] = [
            (index, spec_idx, spec, name, factory, seed, soc)
            for index, (spec_idx, spec, name, factory, seed)
            in enumerate(cells)
        ]
        if indices is not None:
            wanted = list(indices)
            bad = sorted(
                {i for i in wanted if not 0 <= i < len(payloads)}
            )
            if bad:
                raise ValueError(
                    f"cell indices {bad} outside sweep of "
                    f"{len(payloads)} cells"
                )
            if len(set(wanted)) != len(wanted):
                raise ValueError("duplicate cell indices requested")
            chosen = set(wanted)
            payloads = [p for p in payloads if p[0] in chosen]
        return spec_list, policies, soc, payloads
