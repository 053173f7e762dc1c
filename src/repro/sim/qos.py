"""QoS / SLA target construction (Section IV-B).

The paper sets a baseline QoS per model "based on [Bianco et al.]
since each of our accelerator tiles is close to an edge device", then
scales it: **QoS-H** (hard) is 0.8x the baseline target, **QoS-M**
(medium) the baseline, **QoS-L** (light) 1.2x.

We construct the baseline the same way: a model's target is its
isolated latency on an edge-class slice of the SoC (the two-tile slot
the static-partition baseline grants) times a deployment slack factor
that accommodates queueing, then scaled per level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import SoCConfig
from repro.core.latency import NetworkCost, build_network_cost
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.graph import Network


class QosLevel(enum.Enum):
    """The three evaluated QoS tightness levels."""

    HARD = "QoS-H"
    MEDIUM = "QoS-M"
    LIGHT = "QoS-L"

    @property
    def multiplier(self) -> float:
        """Latency-target scaling relative to the baseline QoS."""
        return _QOS_MULTIPLIERS[self]


_QOS_MULTIPLIERS: Dict[QosLevel, float] = {
    QosLevel.HARD: 0.8,
    QosLevel.MEDIUM: 1.0,
    QosLevel.LIGHT: 1.2,
}


@dataclass(frozen=True)
class QosModel:
    """Turns isolated latencies into per-task SLA targets.

    Attributes:
        soc: SoC configuration.
        reference_tiles: Tile count of the edge-class reference slice.
        slack_factor: Deployment slack on top of the reference
            latency (covers queueing and mild interference).
    """

    soc: SoCConfig
    reference_tiles: int = 2
    slack_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.reference_tiles <= 0:
            raise ValueError("reference_tiles must be positive")
        if self.slack_factor <= 0:
            raise ValueError("slack_factor must be positive")

    def isolated_latency(
        self,
        network: Network,
        mem: Optional[MemoryHierarchy] = None,
        num_tiles: Optional[int] = None,
    ) -> float:
        """Latency of ``network`` running alone on ``num_tiles`` tiles
        (defaults to the whole SoC — the metrics' ``C_single``)."""
        if mem is None:
            mem = MemoryHierarchy.from_soc(self.soc)
        return self.isolated_latency_from_cost(
            build_network_cost(network, self.soc, mem), mem, num_tiles
        )

    def isolated_latency_from_cost(
        self,
        cost: NetworkCost,
        mem: MemoryHierarchy,
        num_tiles: Optional[int] = None,
    ) -> float:
        """Same as :meth:`isolated_latency` from a prebuilt cost.

        Read off the network's :class:`~repro.core.latency.RuntimeTable`
        (the one the simulator reads): the column is summed left to
        right from 0, the float ``NetworkCost.total_prediction``
        returns.
        """
        tiles = self.soc.num_tiles if num_tiles is None else num_tiles
        if not 1 <= tiles <= self.soc.num_tiles:
            raise ValueError(
                f"num_tiles must be in 1..{self.soc.num_tiles}, got {tiles}"
            )
        table = cost.runtime_table(
            mem.dram_bandwidth, mem.l2_bandwidth, self.soc.overlap_f,
            self.soc.num_tiles,
        )
        return sum(row[tiles - 1] for row in table.t_full_rows)

    def baseline_target(
        self, network: Network, mem: Optional[MemoryHierarchy] = None
    ) -> float:
        """The model's baseline (QoS-M) SLA target in cycles."""
        return self.slack_factor * self.isolated_latency(
            network, mem, num_tiles=self.reference_tiles
        )

    def target(
        self,
        network: Network,
        level: QosLevel,
        mem: Optional[MemoryHierarchy] = None,
    ) -> float:
        """SLA target for a network at a QoS level, in cycles."""
        return self.baseline_target(network, mem) * level.multiplier
