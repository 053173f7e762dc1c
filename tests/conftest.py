"""Shared fixtures for the simulator- and executor-level tests."""

import pytest

from repro.config import DEFAULT_SOC
from repro.core.latency import build_network_cost
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model
from repro.sim.job import Task


@pytest.fixture(scope="session")
def soc():
    return DEFAULT_SOC


@pytest.fixture(scope="session")
def mem(soc):
    return MemoryHierarchy.from_soc(soc)


def make_task(
    soc,
    mem,
    task_id="t0",
    network="kws",
    dispatch=0.0,
    priority=5,
    qos_target=None,
    qos_slack=3.0,
):
    """Build a Task with sensible defaults for engine tests."""
    cost = build_network_cost(build_model(network), soc, mem)
    isolated = cost.total_prediction(
        soc.num_tiles, mem.dram_bandwidth, mem.l2_bandwidth, soc.overlap_f
    )
    ref = cost.total_prediction(
        2, mem.dram_bandwidth, mem.l2_bandwidth, soc.overlap_f
    )
    if qos_target is None:
        qos_target = qos_slack * ref
    return Task(
        task_id=task_id,
        network_name=network,
        cost=cost,
        dispatch_cycle=dispatch,
        priority=priority,
        qos_target_cycles=qos_target,
        isolated_cycles=isolated,
    )


def _serial_reference(specs, policies=None, soc=None):
    """The evaluation matrix built the plainest way: a loop over
    ``run_cell`` that assembles each ``ScenarioResult`` directly.

    Executor tests compare against this rather than against
    ``run_matrix``, which is itself the executor.
    """
    from repro.experiments.runner import (
        ScenarioResult,
        default_policies,
        run_cell,
    )
    from repro.scenarios import resolve_scenarios

    if policies is None:
        policies = default_policies()
    return {
        spec.label: {
            name: ScenarioResult(
                policy=name,
                spec=spec,
                per_seed=tuple(
                    run_cell(spec, name, factory, seed, soc)
                    for seed in spec.seeds
                ),
            )
            for name, factory in policies.items()
        }
        for spec in resolve_scenarios(specs)
    }


def _reference_cells(specs, policies=None, soc=None):
    """Every cell of a sweep as the ``CellResult`` the executor must
    report, each simulated on its own through ``run_cell_detail``
    (no shared timelines), in submission order.  ``seconds`` and
    ``worker_pid`` are left at zero."""
    from repro.core.latency import track_cache_deltas
    from repro.experiments.results import (
        DECISION_COUNTER_FIELDS,
        CellResult,
    )
    from repro.experiments.runner import default_policies, run_cell_detail
    from repro.scenarios import resolve_scenarios

    if policies is None:
        policies = default_policies()
    cells = []
    for spec_index, spec in enumerate(resolve_scenarios(specs)):
        for name, factory in policies.items():
            for seed in spec.seeds:
                with track_cache_deltas() as cache:
                    summary, result = run_cell_detail(
                        spec, name, factory, seed, soc
                    )
                cells.append(CellResult(
                    index=len(cells),
                    spec_index=spec_index,
                    label=spec.label,
                    policy=name,
                    seed=seed,
                    summary=summary,
                    seconds=0.0,
                    **cache,
                    **{n: getattr(result, n) for n in DECISION_COUNTER_FIELDS},
                ))
    return cells


@pytest.fixture(scope="session")
def serial_reference():
    """:func:`_serial_reference`, the executor-free serial matrix."""
    return _serial_reference


@pytest.fixture(scope="session")
def reference_cells():
    """:func:`_reference_cells`, the executor-free per-cell records."""
    return _reference_cells


@pytest.fixture()
def task_factory(soc, mem):
    def factory(**kwargs):
        return make_task(soc, mem, **kwargs)

    return factory
