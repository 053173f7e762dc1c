"""SoC-configuration sensitivity sweeps (artifact appendix §F).

The paper's artifact lets users rebuild the SoC with different
scratchpad/L2 sizes and rerun the evaluation.  These sweeps reproduce
that customization path on the analytical substrate: vary one Table II
parameter at a time and report how the MoCA-vs-static SLA gap responds.

Expected trends (the ablation benches assert them):

- **DRAM bandwidth**: more bandwidth means less contention, so MoCA's
  advantage shrinks as the channel fattens;
- **L2 capacity**: a larger cache keeps activations resident, cutting
  DRAM traffic and, with it, the benefit of regulation;
- **tile count**: more tiles raise the number of co-runners the
  scheduler can balance, growing MoCA's scheduling headroom.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.baselines.static_partition import StaticPartitionPolicy
from repro.config import DEFAULT_SOC, MIB, SoCConfig
from repro.core.policy import MoCAPolicy
from repro.experiments.runner import run_matrix
from repro.scenarios import ScenarioSpec
from repro.sim.qos import QosLevel


@dataclass(frozen=True)
class SweepPoint:
    """One point of a configuration sweep.

    Attributes:
        label: Human-readable parameter value.
        moca_sla: MoCA's SLA satisfaction rate.
        static_sla: Static baseline's SLA satisfaction rate.
    """

    label: str
    moca_sla: float
    static_sla: float

    @property
    def advantage(self) -> float:
        """MoCA's SLA ratio over static (>1 means MoCA wins)."""
        if self.static_sla <= 0:
            return float("inf")
        return self.moca_sla / self.static_sla


def _evaluate(soc: SoCConfig, num_tasks: int, seeds: Sequence[int],
              workload: str = "C") -> Tuple[float, float]:
    spec = ScenarioSpec(
        workload_set=workload, qos_level=QosLevel.HARD,
        num_tasks=num_tasks, seeds=tuple(seeds), load_factor=0.7,
        slack_factor=2.0,
    )
    cell = run_matrix(
        [spec], {"moca": MoCAPolicy, "static": StaticPartitionPolicy},
        soc=soc,
    )[spec.label]
    return cell["moca"].sla_rate, cell["static"].sla_rate


def _sweep(
    values: Sequence,
    mutate: Callable[[SoCConfig, object], SoCConfig],
    fmt: Callable[[object], str],
    num_tasks: int,
    seeds: Sequence[int],
) -> List[SweepPoint]:
    points = []
    for value in values:
        soc = mutate(DEFAULT_SOC, value)
        moca, static = _evaluate(soc, num_tasks, seeds)
        points.append(SweepPoint(label=fmt(value), moca_sla=moca,
                                 static_sla=static))
    return points


def sweep_dram_bandwidth(
    values: Sequence[float] = (8.0, 16.0, 32.0),
    num_tasks: int = 80,
    seeds: Sequence[int] = (1, 2),
) -> List[SweepPoint]:
    """Vary DRAM bandwidth (bytes/cycle; Table II default 16)."""
    return _sweep(
        values,
        lambda soc, v: dataclasses.replace(
            soc, dram_bandwidth_bytes_per_cycle=v
        ),
        lambda v: f"{v:.0f} B/cyc",
        num_tasks, seeds,
    )


def sweep_l2_capacity(
    values: Sequence[int] = (1 * MIB, 2 * MIB, 8 * MIB),
    num_tasks: int = 80,
    seeds: Sequence[int] = (1, 2),
) -> List[SweepPoint]:
    """Vary shared L2 capacity (Table II default 2 MiB)."""
    return _sweep(
        values,
        lambda soc, v: dataclasses.replace(soc, l2_bytes=v),
        lambda v: f"{v // MIB} MiB",
        num_tasks, seeds,
    )


def sweep_num_tiles(
    values: Sequence[int] = (4, 8, 16),
    num_tasks: int = 80,
    seeds: Sequence[int] = (1, 2),
) -> List[SweepPoint]:
    """Vary the accelerator tile count (Table II default 8)."""
    return _sweep(
        values,
        lambda soc, v: soc.with_tiles(v),
        lambda v: f"{v} tiles",
        num_tasks, seeds,
    )


def format_sweep(title: str, points: Sequence[SweepPoint]) -> str:
    """Render a sweep as aligned text."""
    lines = [
        title,
        f"{'value':<12s}{'moca SLA':>10s}{'static SLA':>12s}"
        f"{'advantage':>11s}",
    ]
    for p in points:
        lines.append(
            f"{p.label:<12s}{p.moca_sla:>10.3f}{p.static_sla:>12.3f}"
            f"{p.advantage:>10.2f}x"
        )
    return "\n".join(lines)
