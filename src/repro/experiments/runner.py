"""Shared experiment machinery.

Every figure experiment runs the same matrix: policies x workload sets
x QoS levels, each scenario repeated over several seeds, metrics
aggregated.  This module owns scenario definition, execution and
aggregation; the per-figure modules select slices of the matrix and
format the paper's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.sanitizer as sanitizer
from repro.baselines import PlanariaPolicy, PremaPolicy, StaticPartitionPolicy
from repro.config import DEFAULT_SOC, SoCConfig
from repro.core.policy import MoCAPolicy
from repro.memory.hierarchy import MemoryHierarchy
from repro.metrics import MetricsSummary, summarize
from repro.models.graph import Network
from repro.models.layers import geomean
from repro.scenarios import (
    ScenarioLike,
    ScenarioSpec,
    reference_matrix_specs,
    resolve_scenario,
)
from repro.sim.engine import SimResult, run_simulation
from repro.sim.job import Task
from repro.sim.policy import Policy
from repro.sim.qos import QosModel
from repro.sim.workload import WorkloadGenerator

PolicyFactory = Callable[[], Policy]


def _run_fail_fast(
    specs: Sequence[ScenarioLike],
    policies: Optional[Dict[str, PolicyFactory]],
    soc: Optional[SoCConfig],
    workers: int,
) -> Dict[str, Dict[str, ScenarioResult]]:
    """Run a matrix through the one local executor
    (:meth:`repro.experiments.parallel.ParallelRunner.run_supervised`)
    without retries, raising on the first failed cell."""
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = one per CPU)")
    from repro.experiments.parallel import ParallelRunner, Supervision

    def fail(failure, exc) -> None:
        raise RuntimeError(
            f"cell {failure.label}/{failure.policy}/seed {failure.seed} "
            f"failed [{failure.kind}]: {failure.message}"
        ) from exc

    acc = ParallelRunner(workers=workers or None).run_supervised(
        specs, policies, soc,
        supervision=Supervision(max_retries=0), on_failure=fail,
    )
    return acc.matrix()


def check_unique_labels(specs: Sequence[ScenarioSpec]) -> None:
    """Matrices are keyed by scenario label; duplicates would simulate
    every cell and then silently collapse to one entry."""
    labels = [spec.label for spec in specs]
    duplicates = sorted({l for l in labels if labels.count(l) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate scenario label(s) in matrix: {duplicates}; "
            f"give repeated scenarios distinct names"
        )


#: The four systems of the paper's evaluation, in presentation order.
POLICY_ORDER: Tuple[str, ...] = ("prema", "static", "planaria", "moca")


def default_policies() -> Dict[str, PolicyFactory]:
    """Factories for the paper's four evaluated systems."""
    return {
        "prema": PremaPolicy,
        "static": StaticPartitionPolicy,
        "planaria": PlanariaPolicy,
        "moca": MoCAPolicy,
    }


@dataclass(frozen=True)
class ScenarioResult:
    """Aggregated outcome of one (policy, scenario) cell.

    Attributes:
        policy: Policy name.
        spec: The scenario.
        per_seed: Metric summaries per seed.
    """

    policy: str
    spec: ScenarioSpec
    per_seed: Tuple[MetricsSummary, ...]

    def _mean(self, getter: Callable[[MetricsSummary], float]) -> float:
        vals = [getter(s) for s in self.per_seed]
        return sum(vals) / len(vals)

    @property
    def sla_rate(self) -> float:
        return self._mean(lambda s: s.sla_rate)

    @property
    def stp(self) -> float:
        return self._mean(lambda s: s.stp)

    @property
    def stp_normalized(self) -> float:
        return self._mean(lambda s: s.stp_normalized)

    @property
    def fairness(self) -> float:
        return self._mean(lambda s: s.fairness)

    @property
    def mean_slowdown(self) -> float:
        return self._mean(lambda s: s.mean_slowdown)

    @property
    def p99_slowdown(self) -> float:
        return self._mean(lambda s: s.p99_slowdown)

    def sla_group(self, group: str) -> float:
        vals = [
            s.sla_by_group[group]
            for s in self.per_seed
            if group in s.sla_by_group
        ]
        if not vals:
            raise KeyError(f"no tasks in group {group!r}")
        return sum(vals) / len(vals)


#: A sweep's deadline-blind simulations, for :func:`run_cell_detail`:
#: timeline key -> (the lead cell's tasks, its ``SimResult``).  The
#: tasks are kept so the costs the key names by identity stay alive.
TimelineStore = Dict[tuple, Tuple[Sequence[Task], SimResult]]

#: The fields of a generated task a deadline-blind run depends on:
#: all but the SLA target, and the cost, which the key holds by
#: identity.
_TIMELINE_FIELDS = attrgetter(*(
    f.name for f in fields(Task)
    if f.name not in ("cost", "qos_target_cycles")
))

#: ``SimResult`` fields a follower must share with a fresh run of its
#: own tasks: all but the trace (off in sweep cells).
_SHARED_RESULT_FIELDS = tuple(
    f.name for f in fields(SimResult) if f.name != "trace"
)


def _timeline_key(policy_name: str, tasks: Sequence[Task]) -> tuple:
    return (
        policy_name,
        tuple((id(t.cost), _TIMELINE_FIELDS(t)) for t in tasks),
    )


def _follow(lead: SimResult, tasks: Sequence[Task]) -> SimResult:
    """The lead's run, with each task's SLA target taken from
    ``tasks``."""
    target = {t.task_id: t.qos_target_cycles for t in tasks}
    return replace(lead, results=[
        replace(r, qos_target_cycles=target[r.task_id])
        for r in lead.results
    ])


def run_cell_detail(
    spec: ScenarioSpec,
    policy_name: str,
    factory: PolicyFactory,
    seed: int,
    soc: Optional[SoCConfig] = None,
    timelines: Optional[TimelineStore] = None,
) -> Tuple[MetricsSummary, "SimResult"]:
    """Run one cell; return its metric bundle *and* the raw
    :class:`~repro.sim.engine.SimResult`.

    This is the single source of truth for how a cell is built —
    the executor calls it for every cell, in-process or in a pool
    worker, which is what makes every worker count bit-identical.  The
    cell is a pure function of its arguments: the workload generator
    reseeds from ``seed`` and the engine is exactly deterministic.
    The ``SimResult`` carries the engine/decision telemetry (events,
    epoch-cache reuse, plans emitted/applied/no-op) the executor
    threads into each :class:`~repro.experiments.results.CellResult`.

    ``timelines`` is one sweep's store of deadline-blind runs.  When
    the policy does not read deadlines
    (:attr:`~repro.sim.policy.Policy.reads_deadlines` is False), the
    first cell to simulate a timeline -- the *lead* -- stores its run
    under the policy name and every generated task field but
    ``qos_target_cycles``.  A later cell with the same key -- a
    *follower*, e.g. the same workload set and seed at another QoS
    level -- generates its tasks as usual, then takes the lead's run
    with its own SLA targets instead of simulating: the result and
    every decision counter are what its own simulation would give.
    A Static or Prema run probes no process-global cache, so a
    follower's cache telemetry (its generation probes) is exact too.  One store serves one sweep: one SoC, one factory per policy
    name.  Under ``REPRO_CHECK=1`` each follower is also simulated,
    and a difference in its results or decision counters raises
    :class:`~repro.sanitizer.SanitizerError`.
    """
    if soc is None:
        soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    qos = QosModel(soc, slack_factor=spec.slack_factor)
    networks: List[Network] = spec.networks()
    gen = WorkloadGenerator(soc, networks, mem, qos)
    tasks = gen.generate(spec.workload_config(seed))
    policy = factory()
    store = None if policy.reads_deadlines else timelines
    lead = None
    if store is not None:
        key = _timeline_key(policy_name, tasks)
        lead = store.get(key)
    if lead is None:
        result = run_simulation(soc, tasks, policy, mem=mem)
        if store is not None:
            store[key] = (tasks, result)
    else:
        result = _follow(lead[1], tasks)
        if sanitizer.enabled:
            fresh = run_simulation(soc, tasks, policy, mem=mem)
            for name in _SHARED_RESULT_FIELDS:
                sanitizer.require(
                    getattr(fresh, name) == getattr(result, name),
                    f"shared timeline differs from a fresh run in "
                    f"{name!r}: {spec.label}/{policy_name}/seed {seed}",
                )
    return summarize(policy_name, result.results), result


def run_cell(
    spec: ScenarioSpec,
    policy_name: str,
    factory: PolicyFactory,
    seed: int,
    soc: Optional[SoCConfig] = None,
) -> MetricsSummary:
    """Run one (scenario, policy, seed) cell of the evaluation matrix
    (see :func:`run_cell_detail`, which this wraps)."""
    return run_cell_detail(spec, policy_name, factory, seed, soc)[0]


def run_scenario(
    spec: ScenarioLike,
    policies: Optional[Dict[str, PolicyFactory]] = None,
    soc: Optional[SoCConfig] = None,
    workers: int = 1,
) -> Dict[str, ScenarioResult]:
    """Run one scenario (spec or registry name) for every policy
    across all seeds.

    ``workers > 1`` (or ``0`` for auto) fans the policy x seed cells
    across a process pool; the results are numerically identical for
    every worker count.  A failing cell raises ``RuntimeError`` naming
    the cell.
    """
    spec = resolve_scenario(spec)
    return _run_fail_fast([spec], policies, soc, workers)[spec.label]


def standard_matrix(
    num_tasks: int = 250,
    seeds: Tuple[int, ...] = (1, 2, 3),
    load_factor: float = 0.7,
    slack_factor: float = 2.0,
) -> List[ScenarioSpec]:
    """The paper's nine scenarios: 3 workload sets x 3 QoS levels.

    Built from :func:`repro.scenarios.reference_matrix_specs` — the
    immutable source the registry's ``ref-*`` entries are also
    registered from — so registry mutation cannot perturb fig5-8.
    The specs are unnamed, keeping the classic
    ``Workload-<set>/<QoS>`` labels fig5-8 render.
    """
    return [
        replace(
            spec,
            num_tasks=num_tasks,
            seeds=tuple(seeds),
            load_factor=load_factor,
            slack_factor=slack_factor,
        )
        for spec in reference_matrix_specs()
    ]


def run_matrix(
    specs: Sequence[ScenarioLike],
    policies: Optional[Dict[str, PolicyFactory]] = None,
    soc: Optional[SoCConfig] = None,
    workers: int = 1,
) -> Dict[str, Dict[str, ScenarioResult]]:
    """Run every scenario (specs and/or registry names); returns
    ``{scenario label: {policy: result}}``.

    ``workers > 1`` (or ``0`` for auto) fans all (scenario, policy,
    seed) cells across a process pool — see
    :mod:`repro.experiments.parallel`.  A failing cell raises
    ``RuntimeError`` naming the cell.
    """
    return _run_fail_fast(specs, policies, soc, workers)


def improvement_ratios(
    matrix: Dict[str, Dict[str, ScenarioResult]],
    metric: str,
    over: str,
    of: str = "moca",
) -> Dict[str, float]:
    """Per-scenario ratio of ``of``'s metric over ``over``'s."""
    ratios = {}
    for label, cell in matrix.items():
        denom = getattr(cell[over], metric)
        num = getattr(cell[of], metric)
        if denom > 0:
            ratios[label] = num / denom
    return ratios


def geomean_improvement(
    matrix: Dict[str, Dict[str, ScenarioResult]],
    metric: str,
    over: str,
    of: str = "moca",
) -> float:
    """Geometric-mean improvement of ``of`` over ``over`` on a metric."""
    ratios = improvement_ratios(matrix, metric, over, of)
    return geomean(ratios.values())


def format_matrix_table(
    matrix: Dict[str, Dict[str, ScenarioResult]],
    metric: str,
    title: str,
) -> str:
    """Render one metric across the whole matrix as aligned text."""
    lines = [title, f"{'scenario':<22s}" + "".join(
        f"{p:>10s}" for p in POLICY_ORDER
    )]
    for label, cell in matrix.items():
        row = f"{label:<22s}"
        for policy in POLICY_ORDER:
            if policy in cell:
                row += f"{getattr(cell[policy], metric):>10.3f}"
            else:
                row += f"{'-':>10s}"
        lines.append(row)
    return "\n".join(lines)
