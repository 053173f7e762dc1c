"""Gemmini-style accelerator substrate: tiles, tiling, DMA, MoCA HW."""

from repro.accelerator.area import AreaModel, TILE_AREA_BREAKDOWN
from repro.accelerator.dma import MEM_REQUEST_BYTES
from repro.accelerator.moca_hw import AccessCounter, MoCAHardwareEngine, ThresholdingModule
from repro.accelerator.tile import compute_cycles, max_useful_tiles
from repro.accelerator.tiling import TilingPlan, plan_tiling

__all__ = [
    "AccessCounter",
    "AreaModel",
    "MEM_REQUEST_BYTES",
    "MoCAHardwareEngine",
    "ThresholdingModule",
    "TILE_AREA_BREAKDOWN",
    "TilingPlan",
    "compute_cycles",
    "max_useful_tiles",
    "plan_tiling",
]
