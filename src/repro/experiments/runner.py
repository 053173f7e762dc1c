"""Shared experiment machinery.

Every figure experiment runs the same matrix: policies x workload sets
x QoS levels, each scenario repeated over several seeds, metrics
aggregated.  This module owns scenario definition, execution and
aggregation; the per-figure modules select slices of the matrix and
format the paper's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    resolve_scenarios,
)
from repro.sim.engine import SimResult, run_simulation
from repro.sim.policy import Policy
from repro.sim.qos import QosModel
from repro.sim.workload import WorkloadGenerator

PolicyFactory = Callable[[], Policy]


def _parallel_runner(workers: int):
    """Validate a ``workers`` count and build the parallel runner
    (shared by :func:`run_scenario` and :func:`run_matrix`)."""
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = one per CPU)")
    from repro.experiments.parallel import ParallelRunner

    return ParallelRunner(workers=workers or None)


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


def run_cell_detail(
    spec: ScenarioSpec,
    policy_name: str,
    factory: PolicyFactory,
    seed: int,
    soc: Optional[SoCConfig] = None,
) -> Tuple[MetricsSummary, "SimResult"]:
    """Run one cell; return its metric bundle *and* the raw
    :class:`~repro.sim.engine.SimResult`.

    This is the single source of truth for how a cell is built —
    the serial loop below and the parallel executor's workers both
    call it, which is what makes the two paths bit-identical.  The
    cell is a pure function of its arguments: the workload generator
    reseeds from ``seed``, the engine is exactly deterministic, and
    the scenario's :meth:`~repro.scenarios.ScenarioSpec.cadence`
    regulates when the policy is consulted.  The ``SimResult``
    carries the engine/decision telemetry (events, epoch-cache
    reuse, plans emitted/applied/no-op) the streaming executor
    threads into each :class:`~repro.experiments.results.CellResult`.
    """
    if soc is None:
        soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    qos = QosModel(soc, slack_factor=spec.slack_factor)
    networks: List[Network] = spec.networks()
    gen = WorkloadGenerator(soc, networks, mem, qos)
    tasks = gen.generate(spec.workload_config(seed))
    result = run_simulation(
        soc, tasks, factory(), mem=mem, cadence=spec.cadence()
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

    ``workers > 1`` (or ``0`` for auto) delegates the policy x seed
    cells to :class:`repro.experiments.parallel.ParallelRunner`; the
    results are numerically identical to the serial path.
    """
    spec = resolve_scenario(spec)
    if workers != 1:
        return _parallel_runner(workers).run_scenario(spec, policies, soc)
    if policies is None:
        policies = default_policies()

    out: Dict[str, ScenarioResult] = {}
    for name, factory in policies.items():
        summaries = [
            run_cell(spec, name, factory, seed, soc)
            for seed in spec.seeds
        ]
        out[name] = ScenarioResult(
            policy=name, spec=spec, per_seed=tuple(summaries)
        )
    return out


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
    :mod:`repro.experiments.parallel`.
    """
    resolved = resolve_scenarios(specs)
    if workers != 1:
        # ParallelRunner.run_matrix performs its own label check.
        return _parallel_runner(workers).run_matrix(resolved, policies, soc)
    check_unique_labels(resolved)
    return {
        spec.label: run_scenario(spec, policies, soc)
        for spec in resolved
    }


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
