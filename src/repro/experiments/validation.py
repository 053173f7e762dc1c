"""Latency-model validation (Section III-C's 10 % claim).

The paper validates Algorithm 1 against FireSim RTL measurements and
reports prediction error within 10 % across networks and layers.  Our
measured substrate is the fluid simulator, which executes at *layer
block* granularity with block-level compute/memory overlap — a
different discretization from the per-layer estimator.  The validation
therefore checks that the per-layer analytical prediction agrees with
the simulated block-granular execution across every network and tile
allocation, the same cross-granularity consistency the paper's
validation establishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import DEFAULT_SOC, SoCConfig
from repro.core.latency import build_network_cost, estimate_network
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model, model_names
from repro.sim.engine import run_simulation
from repro.sim.job import Task
from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import Policy


class _FixedTilesPolicy(Policy):
    """Runs the single validation task on a fixed tile count."""

    name = "fixed-tiles"

    def __init__(self, tiles: int) -> None:
        self.tiles = tiles

    def decide(self, sim) -> AllocationPlan:
        if sim.ready and not sim.running:
            return AllocationPlan(
                admissions=((sim.ready[0].job_id, self.tiles),)
            )
        return EMPTY_PLAN

    def reset(self) -> None:
        """Stateless."""


@dataclass(frozen=True)
class ValidationRow:
    """One (network, tiles) validation point.

    Attributes:
        network: Model name.
        tiles: Tile allocation.
        predicted: Per-layer Algorithm 1 prediction, cycles.
        measured: Fluid-simulated runtime, cycles.
        rel_error: ``|predicted - measured| / measured``.
    """

    network: str
    tiles: int
    predicted: float
    measured: float

    @property
    def rel_error(self) -> float:
        return abs(self.predicted - self.measured) / self.measured


def run_validation(
    soc: Optional[SoCConfig] = None,
    tile_counts: Sequence[int] = (1, 2, 4, 8),
) -> List[ValidationRow]:
    """Validate Algorithm 1 across the zoo and tile allocations."""
    if soc is None:
        soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    rows: List[ValidationRow] = []
    for name in model_names():
        network = build_model(name)
        cost = build_network_cost(network, soc, mem)
        # Alone on the whole SoC: the floor any tile count runs above.
        isolated = cost.total_prediction(
            soc.num_tiles, mem.dram_bandwidth, mem.l2_bandwidth,
            soc.overlap_f,
        )
        for tiles in tile_counts:
            predicted, _ = estimate_network(
                network, soc, mem, num_tiles=tiles
            )
            task = Task(
                task_id="probe",
                network_name=name,
                cost=cost,
                dispatch_cycle=0.0,
                priority=5,
                qos_target_cycles=1e18,
                isolated_cycles=isolated,
            )
            result = run_simulation(
                soc, [task], _FixedTilesPolicy(tiles), mem=mem
            )
            measured = result.results[0].runtime
            rows.append(
                ValidationRow(
                    network=name,
                    tiles=tiles,
                    predicted=predicted,
                    measured=measured,
                )
            )
    return rows


def summarize_validation(rows: Sequence[ValidationRow]) -> Tuple[float, float]:
    """``(mean_rel_error, max_rel_error)`` over all validation points."""
    if not rows:
        raise ValueError("no validation rows")
    errors = [r.rel_error for r in rows]
    return sum(errors) / len(errors), max(errors)


def format_validation(rows: Sequence[ValidationRow]) -> str:
    """Render the validation table plus the 10 % check."""
    lines = [
        "Latency-model validation (Alg. 1 vs fluid simulation)",
        f"{'network':<12s}{'tiles':>6s}{'predicted':>14s}"
        f"{'measured':>14s}{'err %':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r.network:<12s}{r.tiles:>6d}{r.predicted:>14,.0f}"
            f"{r.measured:>14,.0f}{100 * r.rel_error:>8.2f}"
        )
    mean_err, max_err = summarize_validation(rows)
    lines.append(
        f"mean error {100 * mean_err:.2f}%, max {100 * max_err:.2f}% "
        "(paper: within 10%)"
    )
    return "\n".join(lines)
