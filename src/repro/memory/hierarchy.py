"""The full shared-memory hierarchy: L2 + DRAM.

Bundles the capacity and bandwidth models Algorithm 1 consults so the
latency estimator and the simulator take a single object.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SoCConfig
from repro.memory.dram import DramModel
from repro.memory.l2 import L2Model


@dataclass(frozen=True)
class MemoryHierarchy:
    """Shared L2 + DRAM.

    Attributes:
        l2: Shared cache model.
        dram: DRAM bandwidth model.
    """

    l2: L2Model
    dram: DramModel

    @classmethod
    def from_soc(cls, soc: SoCConfig) -> "MemoryHierarchy":
        """Build the hierarchy from an SoC configuration (Table II)."""
        return cls(l2=L2Model.from_soc(soc), dram=DramModel.from_soc(soc))

    @property
    def dram_bandwidth(self) -> float:
        """Usable DRAM bandwidth in bytes per cycle (Alg. 1 DRAM_BW)."""
        return self.dram.usable_bandwidth

    @property
    def l2_bandwidth(self) -> float:
        """Aggregate L2 bandwidth in bytes per cycle (Alg. 1 L2_BW)."""
        return self.l2.peak_bandwidth

    def input_cached(self, input_bytes: int, num_sharers: int = 1) -> bool:
        """Algorithm 1 line 7: can the input activation stay resident?"""
        return self.l2.fits(input_bytes, num_sharers)

    def tile_cached(self, per_tile_bytes: int, num_sharers: int = 1) -> bool:
        """Algorithm 1 line 10: does one data tile survive in the L2?"""
        return self.l2.fits(per_tile_bytes, num_sharers)
