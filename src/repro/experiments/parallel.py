"""Parallel experiment executor: fan the evaluation matrix over processes.

The paper's evaluation is a matrix of independent cells — one
``(scenario, policy, seed)`` triple per simulation — and every cell is
a pure function of its inputs (the workload generator reseeds from the
cell's seed, the engine is exactly deterministic).  That makes the
harness embarrassingly parallel, and this module exploits it with a
:class:`concurrent.futures.ProcessPoolExecutor`.

Streaming model
---------------

:meth:`ParallelRunner.iter_cells` flattens ``specs x policies x
seeds`` into indexed cell payloads, ships them to worker processes in
chunks, and **yields one** :class:`~repro.experiments.results.
CellResult` **per completed cell as its future resolves** — no barrier
across the sweep.  Completion order is nondeterministic in pool mode;
every cell carries its global submission index, and
:class:`~repro.experiments.results.SweepResults` folds the stream back
into the deterministic ``{label: {policy: ScenarioResult}}`` matrix.
:meth:`ParallelRunner.run_matrix` is exactly that composition, so it
stays drop-in interchangeable and numerically identical with the
serial :func:`repro.experiments.runner.run_matrix`.

Warm workers
------------

Every worker process is started with an initializer that pre-warms the
process-global network-cost cache and the per-block predict memos for
the models of the sweep (:func:`repro.core.latency.
warm_network_cost_cache`).  Fork-start hosts inherit the parent's warm
caches anyway; on spawn-start hosts the initializer is what keeps each
cell from paying the cold-start that PR 1's review flagged.  Each
:class:`CellResult` carries cache hit/miss deltas, so warmth is
observable: a warm worker's cells report zero ``cost_cache_misses``.

For timing-sensitive callers, :meth:`ParallelRunner.start_pool` makes
the pool persistent and forces every worker to spawn (and warm) *now*;
subsequent :meth:`run_matrix` / :meth:`iter_cells` calls reuse it —
``scripts/bench_perf.py`` warms the pool before its timed leg this
way.  :meth:`close_pool` (or using the runner as a context manager)
releases it.

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
break mid-sweep (already-yielded cells are kept; only the remainder
reruns serially).

Reading ``BENCH_perf.json``
---------------------------

``scripts/bench_perf.py`` times a fixed reference matrix through both
paths and writes ``BENCH_perf.json``: ``serial.seconds`` vs
``parallel.seconds`` (and their ratio, ``speedup``) measure this
module; ``engine.events_per_sec`` and the ``block_time_*`` counters
measure the simulator's engine loop; ``identical_metrics``
asserts the two paths agreed bit-for-bit; ``host.start_method`` and
``parallel.cache`` record the worker start method and the aggregated
cache counters the warm-worker path is judged by.  Every future
performance PR should beat the checked-in trajectory.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
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
            serial in-process cell cannot be interrupted).
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
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Delay before re-running a cell whose attempt ``attempt``
        failed."""
        return self.backoff_base * self.backoff_factor ** attempt


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock cost of one (scenario, policy, seed) simulation.

    Attributes:
        label: Scenario label.
        policy: Policy name.
        seed: Workload seed.
        seconds: Wall seconds the cell took inside its worker.
    """

    label: str
    policy: str
    seed: int
    seconds: float


def _run_cell(payload: _CellPayload, attempt: int = 0) -> CellResult:
    """Execute one matrix cell (runs inside a worker process).

    Delegates to :func:`repro.experiments.runner.run_cell_detail` —
    the same recipe the serial path uses — and wraps the summary with
    timing, engine/decision counters
    and cache telemetry (a per-cell delta frame spanning the whole
    cell, generation included, so warm-cache behaviour is observable
    from the parent and concurrent accounting in the same process —
    e.g. the broken-pool serial fallback rerunning cells in the
    parent — cannot double-count).

    ``attempt`` is the supervised executor's retry counter; it feeds
    the (single) fault-injection point and nothing else — the cell's
    simulation is a pure function of the payload, so a retried cell
    returns exactly the result the first attempt would have.
    """
    from repro.core.latency import track_cache_deltas

    index, spec_idx, spec, policy_name, factory, seed, soc = payload
    faults.maybe_inject(index, attempt)
    t0 = time.perf_counter()
    with track_cache_deltas() as cache_delta:
        summary, sim_result = run_cell_detail(
            spec, policy_name, factory, seed, soc
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


def _run_cell_chunk(payloads: Sequence[_CellPayload]) -> List[CellResult]:
    """Worker entry point for one submission chunk."""
    return [_run_cell(p) for p in payloads]


def _run_cell_supervised(
    payload: _CellPayload, attempt: int
) -> CellResult:
    """Worker entry point for one supervised (per-cell) submission."""
    return _run_cell(payload, attempt)


def _warm_worker(
    model_names: Sequence[str],
    soc: SoCConfig,
    fault_plan: Optional[FaultPlan] = None,
) -> int:
    """Pool initializer: pre-warm this worker's cost/predict caches.

    Runs once per worker process before it takes any cell; idempotent
    (re-running is a pure cache hit), so it doubles as the payload of
    :meth:`ParallelRunner.start_pool`'s spawn-forcing probes.

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


def _warm_probe(
    model_names: Sequence[str],
    soc: SoCConfig,
    barrier=None,
) -> Tuple[int, bool]:
    """Pool task that warms (idempotently) and reports its worker pid.

    ``barrier`` (a manager-proxied ``multiprocessing.Barrier`` sized
    to the worker count) makes the probes a true rendezvous: each
    probe blocks until every worker holds one, so N probes provably
    ran on N *distinct*, fully initialized workers — without it, one
    fast worker could drain every probe while its siblings are still
    cold-starting.  A broken/timed-out barrier (e.g. a worker died)
    degrades to returning anyway rather than wedging the pool — but
    no longer silently: the returned flag records the failed
    rendezvous so the parent can warn and count it in telemetry
    (:attr:`ParallelRunner.last_warmup_timeouts`), instead of the
    distinct-worker guarantee degrading invisibly.
    """
    # Warm directly rather than via _warm_worker: re-running the
    # initializer would clobber the fault plan it installed.
    from repro.core.latency import warm_network_cost_cache
    from repro.models.zoo import build_model

    warm_network_cost_cache(
        [build_model(name) for name in model_names], soc
    )
    warmup_timed_out = False
    if barrier is not None:
        try:
            barrier.wait(timeout=60)
        except Exception:
            warmup_timed_out = True
    return os.getpid(), warmup_timed_out


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
        chunk_size: Cells per submission chunk; ``None`` derives a
            chunk that splits the payload across ``4 x workers``
            slices so uneven cells rebalance.  Streaming granularity
            is one chunk: a chunk's cells are yielded together when
            its future completes.
        warm_start: Start every worker with the cache-warming
            initializer (default True; fork hosts inherit warmth
            either way, spawn hosts need it).
        last_timings: Per-cell wall-clock timings of the most recent
            :meth:`run_matrix` call, in submission order (spec, then
            policy, then seed) — not completion order.
        last_cells: The :class:`CellResult` stream of the most recent
            :meth:`run_matrix` call, in submission order.
        last_sweep: The :class:`~repro.experiments.results.
            SweepResults` accumulator of the most recent
            :meth:`run_matrix` call (``None`` before the first) —
            exposes :meth:`~repro.experiments.results.SweepResults.
            cache_stats` and :meth:`~repro.experiments.results.
            SweepResults.worker_pids` for telemetry consumers.
        last_mode: ``"parallel"`` or ``"serial"`` — which path the most
            recent :meth:`run_matrix` / :meth:`iter_cells` call
            actually took (a pool that broke mid-sweep reports
            ``"serial"``, the degraded mode the remainder ran in).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        warm_start: bool = True,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.workers = workers
        self.chunk_size = chunk_size
        self.warm_start = warm_start
        #: Deterministic fault plan installed into every pool worker
        #: (via the initializer) — the testing seam that makes the
        #: failure paths below reproducible.  ``None`` in production.
        self.fault_plan = fault_plan
        self.last_timings: List[CellTiming] = []
        self.last_cells: List[CellResult] = []
        self.last_sweep: Optional[SweepResults] = None
        self.last_mode: str = "serial"
        #: Warm probes whose barrier rendezvous timed out in the most
        #: recent :meth:`start_pool` (0 = every worker rendezvoused).
        self.last_warmup_timeouts: int = 0
        #: Same, accumulated over every pool this runner has started —
        #: the telemetry workers report to a coordinator over the
        #: heartbeat channel (a runner can warm several pools in one
        #: sweep; the coordinator wants the run total, not the last).
        self.total_warmup_timeouts: int = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    # ------------------------------------------------------------------
    # Persistent pool management
    # ------------------------------------------------------------------

    def start_pool(
        self,
        specs: Sequence[ScenarioLike] = (),
        soc: Optional[SoCConfig] = None,
    ) -> List[int]:
        """Start a persistent worker pool and warm it *now*.

        Creates the pool (with the warm initializer covering the
        models of ``specs``), then submits one warm probe per worker,
        rendezvoused on a barrier so every worker process provably
        spawns and builds its caches before this call returns —
        moving cold-start out of whatever the caller times next.
        (Without the rendezvous a fast worker could consume all the
        probes while its siblings are still initializing.)  If the
        barrier machinery itself is unavailable (no manager process
        in this sandbox), the probes still run, just without the
        distinct-worker guarantee.  Subsequent :meth:`run_matrix` /
        :meth:`iter_cells` calls reuse the pool until
        :meth:`close_pool`.

        Returns:
            The distinct worker pids that answered the probes (empty
            if the pool could not start; the runner then degrades to
            per-call pools / serial fallback as usual).
        """
        if self._pool is not None:
            raise RuntimeError("pool already started")
        if self.workers == 1:
            # The executor will run serially in-process; a warm pool
            # would sit idle (and its telemetry would contradict
            # last_mode == "serial").
            return []
        spec_list = resolve_scenarios(specs) if specs else []
        if soc is None:
            soc = DEFAULT_SOC
        workers = min(self.workers, 61)
        pool = None
        manager = None
        try:
            pool = self._make_pool(workers, spec_list, soc)
            model_names = _spec_model_names(spec_list)
            barrier = None
            if workers > 1:
                import multiprocessing

                try:
                    manager = multiprocessing.Manager()
                    barrier = manager.Barrier(workers)
                except Exception:
                    manager = None  # degrade: probes without rendezvous
            probes = [
                pool.submit(_warm_probe, model_names, soc, barrier)
                for _ in range(workers)
            ]
            wait(probes)
            answers = [p.result() for p in probes]
            pids = sorted({pid for pid, _ in answers})
            self.last_warmup_timeouts = sum(
                1 for _, timed_out in answers if timed_out
            )
            self.total_warmup_timeouts += self.last_warmup_timeouts
            if self.last_warmup_timeouts:
                print(
                    f"parallel: warm-up rendezvous timed out on "
                    f"{self.last_warmup_timeouts} of {workers} "
                    f"probe(s); the distinct-worker warm-start "
                    f"guarantee does not hold for this pool",
                    file=sys.stderr,
                )
        except (OSError, BrokenProcessPool) as exc:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            print(
                f"parallel: persistent pool unavailable "
                f"({type(exc).__name__}: {exc})",
                file=sys.stderr,
            )
            return []
        finally:
            if manager is not None:
                manager.shutdown()
        self._pool = pool
        self._pool_workers = workers
        return pids

    def close_pool(self) -> None:
        """Shut the persistent pool down (no-op without one)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_workers = 0

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_pool()

    def _make_pool(
        self,
        workers: int,
        spec_list: Sequence[ScenarioSpec],
        soc: SoCConfig,
    ) -> ProcessPoolExecutor:
        warm = self.warm_start and spec_list
        if warm or self.fault_plan is not None:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_warm_worker,
                initargs=(
                    _spec_model_names(spec_list) if warm else (),
                    soc,
                    self.fault_plan,
                ),
            )
        return ProcessPoolExecutor(max_workers=workers)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even if a worker is wedged.

        ``shutdown`` alone would join a hung worker forever; after
        cancelling what has not started, any worker process still
        alive is terminated outright.  Reaches into executor
        internals (``_processes``) — guarded, and acceptable for a
        pool that is already being discarded for cause.
        """
        pool.shutdown(wait=False, cancel_futures=True)
        try:
            for proc in list(getattr(pool, "_processes", {}).values()):
                if proc.is_alive():
                    proc.terminate()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run_scenario(
        self,
        spec: ScenarioLike,
        policies: Optional[Dict[str, PolicyFactory]] = None,
        soc: Optional[SoCConfig] = None,
    ) -> Dict[str, ScenarioResult]:
        """Parallel equivalent of :func:`runner.run_scenario`."""
        spec = resolve_scenarios([spec])[0]
        matrix = self.run_matrix([spec], policies, soc)
        return matrix[spec.label]

    def run_matrix(
        self,
        specs: Sequence[ScenarioLike],
        policies: Optional[Dict[str, PolicyFactory]] = None,
        soc: Optional[SoCConfig] = None,
    ) -> Dict[str, Dict[str, ScenarioResult]]:
        """Parallel equivalent of :func:`runner.run_matrix`.

        Streams cells through :meth:`iter_cells` and folds each one
        into a :class:`~repro.experiments.results.SweepResults` the
        moment it completes — per-seed summaries aggregate
        incrementally, there is no end-of-sweep barrier beyond
        exhausting the stream.  Accepts registry names as well as
        specs.  Returns ``{scenario label: {policy: ScenarioResult}}``
        with numerically identical contents to the serial path.
        """
        if policies is None:
            policies = default_policies()
        spec_list = resolve_scenarios(specs)
        acc = SweepResults(spec_list, list(policies))
        for cell in self.iter_cells(spec_list, policies, soc):
            acc.add(cell)
        cells = acc.cells()
        self.last_sweep = acc
        self.last_cells = cells
        self.last_timings = [
            CellTiming(
                label=c.label, policy=c.policy, seed=c.seed,
                seconds=c.seconds,
            )
            for c in cells
        ]
        return acc.matrix()

    def iter_cells(
        self,
        specs: Sequence[ScenarioLike],
        policies: Optional[Dict[str, PolicyFactory]] = None,
        soc: Optional[SoCConfig] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> Iterator[CellResult]:
        """Yield every cell of the sweep as it completes.

        Pool mode yields in completion order (nondeterministic);
        serial mode in submission order.  The *set* of cells is
        deterministic either way, and every cell carries its global
        submission ``index``, so feeding the stream to
        :class:`~repro.experiments.results.SweepResults` yields the
        same aggregate regardless of arrival order.

        ``indices`` restricts execution to a subset of the sweep's
        global cell indices — the seam shard execution
        (:func:`repro.experiments.sharding.run_shard`) rides on.  The
        yielded cells keep their *global* indices (a shard's cells
        slot straight into the full sweep's accumulator); unknown or
        duplicate indices are rejected.
        """
        spec_list, policies, soc, payloads = self._build_payloads(
            specs, policies, soc, indices
        )
        if not payloads:
            self.last_mode = "serial"
            return
        yield from self._execute(payloads, spec_list, soc)

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

        The fault-tolerant executor: every cell gets a bounded retry
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
          rebuilt and every in-flight cell re-run.  The crash cannot
          be attributed to one cell, so *all* in-flight cells are
          (conservatively) charged an attempt; innocents simply
          succeed on the re-run.  If the pool cannot be rebuilt at
          all, the remainder drains serially in-process — the old
          broken-pool fallback, now folded into the same retry
          ledger.
        - **Timeouts** (``supervision.cell_timeout``): the hung
          worker's pool is torn down (hung workers never release
          their slot voluntarily), the expired cell is charged an
          attempt, and blameless in-flight cells are re-run without
          charge.  Unenforceable in serial mode, where a cell cannot
          be interrupted.

        Args:
            specs / policies / soc / indices: As :meth:`iter_cells`.
            supervision: The retry/timeout/backoff/fault policy
                (defaults to :class:`Supervision`'s defaults).  Its
                ``fault_plan`` (or the runner's) is installed in
                every worker via the pool initializer, and in this
                process for the in-process-safe fault kinds.
            acc: Accumulator to fold into (for resume: pre-populated
                with previously completed cells); a fresh one is
                built when omitted.
            on_cell / on_failure: Optional callbacks invoked the
                moment each cell result / quarantined failure is
                folded in — the checkpoint-journal seam.

        Returns:
            The accumulator.  ``acc.complete`` means every cell
            succeeded; ``acc.degraded`` means quarantined failures
            remain (``acc.failures()`` lists them, and a resume can
            re-run ``acc.missing_indices()``).
        """
        sup = supervision if supervision is not None else Supervision()
        # The supervision's plan (if any) wins over the runner's for
        # the duration of this run only — a later unsupervised (or
        # differently-supervised) call on the same runner must not
        # inherit it.
        prior_plan = self.fault_plan
        if sup.fault_plan is not None:
            self.fault_plan = sup.fault_plan
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
            message: str,
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
            print(
                f"parallel: quarantined cell {failure.index} "
                f"({failure.label}/{failure.policy}/seed "
                f"{failure.seed}) after {attempts} attempt(s): "
                f"[{kind}] {message}",
                file=sys.stderr,
            )
            if on_failure is not None:
                on_failure(failure)

        installed_parent_plan = False
        if self.fault_plan is not None:
            # In-process activation for the serial path and the
            # serial fallback; crash/hang are worker-only by design.
            faults.install_plan(self.fault_plan, in_worker=False)
            installed_parent_plan = True
        try:
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
            for payload, attempt in remaining:
                self._supervise_serial(
                    payload, attempt, sup, record_cell, quarantine
                )
        finally:
            self.fault_plan = prior_plan
            if installed_parent_plan:
                faults.clear_plan()
        cells = acc.cells()
        self.last_sweep = acc
        self.last_cells = cells
        self.last_timings = [
            CellTiming(
                label=c.label, policy=c.policy, seed=c.seed,
                seconds=c.seconds,
            )
            for c in cells
        ]
        return acc

    def _supervise_serial(
        self,
        payload: _CellPayload,
        attempt: int,
        sup: Supervision,
        record_cell,
        quarantine,
    ) -> None:
        """Run one cell in-process under the retry ledger.

        Timeouts are unenforceable here (no process boundary to kill
        across); error retries and quarantine work identically to the
        pool path.
        """
        while True:
            try:
                cell = _run_cell(payload, attempt)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if attempt >= sup.max_retries:
                    quarantine(
                        payload, attempt + 1, "error",
                        f"{type(exc).__name__}: {exc}",
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
        one cell, unlike the throughput path's chunks) through a
        bounded in-flight window of one cell per worker — a submitted
        cell therefore starts promptly, which is what makes a
        submission-stamped wall-clock deadline a faithful *cell*
        timeout.

        Returns the work that still needs the serial fallback (empty
        unless the pool could not be (re)built); each entry keeps its
        retry-ledger attempt count.
        """
        from collections import deque

        queue = deque(work)
        pool = self._pool
        owns_pool = pool is None
        if pool is not None:
            workers = min(self._pool_workers, max(len(queue), 1))
        else:
            workers = min(self.workers, max(len(queue), 1), 61)
        if owns_pool:
            try:
                pool = self._make_pool(workers, spec_list, soc)
            except OSError as exc:
                print(
                    f"parallel: process pool unavailable "
                    f"({type(exc).__name__}: {exc}); supervising "
                    f"{len(queue)} cells serially",
                    file=sys.stderr,
                )
                return list(queue)
        self.last_mode = "parallel"
        #: future -> (payload, attempt, deadline or None)
        inflight: Dict[object, Tuple[_CellPayload, int, Optional[float]]] = {}

        def requeue_or_quarantine(
            payload: _CellPayload, attempt: int, kind: str,
            message: str,
        ) -> None:
            if attempt >= sup.max_retries:
                quarantine(payload, attempt + 1, kind, message)
            else:
                queue.append((payload, attempt + 1))

        def replace_pool(reason: str):
            """Discard the (broken or hung) pool; build a successor."""
            nonlocal owns_pool
            self._terminate_pool(pool)
            if not owns_pool:
                # The persistent pool is a corpse; forget it so later
                # runs start fresh rather than resubmitting to it.
                self._pool = None
                self._pool_workers = 0
                owns_pool = True
            try:
                return self._make_pool(workers, spec_list, soc)
            except OSError as exc:
                print(
                    f"parallel: could not rebuild pool after {reason} "
                    f"({type(exc).__name__}: {exc}); draining "
                    f"remaining cells serially",
                    file=sys.stderr,
                )
                return None

        try:
            while queue or inflight:
                while queue and len(inflight) < workers:
                    payload, attempt = queue.popleft()
                    deadline = (
                        time.monotonic() + sup.cell_timeout
                        if sup.cell_timeout is not None else None
                    )
                    future = pool.submit(
                        _run_cell_supervised, payload, attempt
                    )
                    inflight[future] = (payload, attempt, deadline)
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
                pool_broken = False
                broken_message = ""
                retry_attempts: List[int] = []
                for future in done:
                    payload, attempt, _deadline = inflight.pop(future)
                    try:
                        cell = future.result()
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        broken_message = f"{type(exc).__name__}: {exc}"
                        requeue_or_quarantine(
                            payload, attempt, "crash", broken_message
                        )
                        retry_attempts.append(attempt)
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:
                        if attempt >= sup.max_retries:
                            quarantine(
                                payload, attempt + 1, "error",
                                f"{type(exc).__name__}: {exc}",
                            )
                        else:
                            delay = sup.backoff(attempt)
                            if delay:
                                time.sleep(delay)
                            queue.append((payload, attempt + 1))
                    else:
                        record_cell(cell)
                if pool_broken:
                    # Every other in-flight future is doomed with the
                    # same BrokenProcessPool; charge them all one
                    # attempt (the crasher is unattributable) and
                    # restart on a fresh pool.
                    for payload, attempt, _deadline in inflight.values():
                        requeue_or_quarantine(
                            payload, attempt, "crash", broken_message
                        )
                        retry_attempts.append(attempt)
                    inflight.clear()
                    if retry_attempts:
                        delay = sup.backoff(min(retry_attempts))
                        if delay:
                            time.sleep(delay)
                    pool = replace_pool("worker crash")
                    if pool is None:
                        return list(queue)
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
                        requeue_or_quarantine(
                            payload, attempt, "timeout",
                            f"cell exceeded the {sup.cell_timeout}s "
                            f"wall-clock timeout",
                        )
                    for payload, attempt, _deadline in inflight.values():
                        queue.append((payload, attempt))
                    inflight.clear()
                    pool = replace_pool("cell timeout")
                    if pool is None:
                        return list(queue)
            return []
        finally:
            if owns_pool and pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            else:
                for future in inflight:
                    future.cancel()

    # ------------------------------------------------------------------

    def _build_payloads(
        self,
        specs: Sequence[ScenarioLike],
        policies: Optional[Dict[str, PolicyFactory]],
        soc: Optional[SoCConfig],
        indices: Optional[Sequence[int]],
    ):
        """Resolve the sweep into indexed cell payloads (shared by the
        streaming and supervised executors)."""
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

    # ------------------------------------------------------------------

    def _execute(
        self,
        payloads: List[_CellPayload],
        spec_list: Sequence[ScenarioSpec],
        soc: SoCConfig,
    ) -> Iterator[CellResult]:
        """Stream the cells, preferring the pool, degrading to serial."""
        # Only the policy factories can realistically fail to pickle
        # (specs and SoCs are frozen dataclasses of primitives), so
        # probe the distinct factories instead of every payload —
        # deduplicated by identity, since a factory need not be
        # hashable to be a valid callable.
        factories = tuple(
            {id(p[4]): p[4] for p in payloads}.values()
        )
        remaining = payloads
        if (
            self.workers > 1
            and len(payloads) > 1
            and _picklable(factories)
        ):
            done: Set[int] = set()
            try:
                for cell in self._stream_pool(payloads, spec_list, soc):
                    done.add(cell.index)
                    yield cell
                self.last_mode = "parallel"
                return
            except (OSError, BrokenProcessPool) as exc:
                # Pool could not start or died (sandboxes, restricted
                # environments, spawn-bootstrap child crashes); the
                # cells are identical either way, only slower.  Errors
                # raised *by a worker's simulation* (SimulationError
                # and friends) propagate — rerunning serially would
                # only hit them again.  Cells that already streamed
                # out stay streamed; only the remainder reruns here.
                # A broken *persistent* pool is discarded so the next
                # run can start a fresh one instead of resubmitting to
                # the corpse forever.
                self.close_pool()
                remaining = [p for p in payloads if p[0] not in done]
                print(
                    f"parallel: process pool unavailable "
                    f"({type(exc).__name__}: {exc}); running "
                    f"{len(remaining)} cells serially",
                    file=sys.stderr,
                )
        self.last_mode = "serial"
        for payload in remaining:
            yield _run_cell(payload)

    def _stream_pool(
        self,
        payloads: List[_CellPayload],
        spec_list: Sequence[ScenarioSpec],
        soc: SoCConfig,
    ) -> Iterator[CellResult]:
        # 61 is ProcessPoolExecutor's hard ceiling on Windows; capping
        # everywhere keeps auto-sized runs from crashing there.
        pool = self._pool
        if pool is not None:
            workers = min(self._pool_workers, len(payloads))
        else:
            workers = min(self.workers, len(payloads), 61)
        if self.chunk_size is not None:
            chunk = self.chunk_size
        else:
            chunk = max(1, len(payloads) // (workers * 4))
        chunks = [
            payloads[i:i + chunk]
            for i in range(0, len(payloads), chunk)
        ]
        owns_pool = pool is None
        if owns_pool:
            pool = self._make_pool(workers, spec_list, soc)
        pending = set()
        try:
            pending = {pool.submit(_run_cell_chunk, c) for c in chunks}
            while pending:
                finished, pending = wait(
                    pending, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    yield from future.result()
        finally:
            if owns_pool:
                pool.shutdown(wait=True, cancel_futures=True)
            else:
                # A caller abandoning the stream mid-sweep (breaking
                # out of iter_cells) must not leave a persistent pool
                # grinding through discarded chunks; cancel whatever
                # has not started (in-flight chunks still finish).
                # repro-lint: allow[D103] -- cancellation is order-insensitive; no output depends on iteration order
                for future in pending:
                    future.cancel()
