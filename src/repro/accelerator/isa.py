"""Gemmini-style instruction streams for DNN layers.

Gemmini executes DNN layers as sequences of a few coarse instructions:
``mvin`` (DMA a tensor slice into the scratchpad), ``preload`` /
``compute`` (feed the systolic array), and ``mvout`` (DMA results back
through the accumulator).  MoCA's hardware sits precisely on the
``mvin``/``mvout`` path — between the ld/st queues and the request
generation engine — which is why it can throttle memory without
touching the compute pipeline.

This module lowers a layer (through its scratchpad tiling plan) into
that instruction stream; :mod:`repro.accelerator.multitile` executes
streams in order against a shared DRAM channel.  Together they provide
an instruction-level cross-check of the analytical latency model
(Algorithm 1) and of the throttling engine's effect on real
instruction streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.accelerator.tiling import plan_tiling
from repro.config import SoCConfig
from repro.models.layers import (
    Layer,
    LayerKind,
    effective_pe_utilization,
)


class Opcode(enum.Enum):
    """The coarse Gemmini-style instruction set."""

    MVIN = "mvin"        # DMA load into scratchpad
    COMPUTE = "compute"  # systolic-array work
    MVOUT = "mvout"      # DMA store from accumulator


@dataclass(frozen=True)
class Instruction:
    """One coarse instruction.

    Attributes:
        op: Opcode.
        num_bytes: Bytes moved (MVIN/MVOUT; 0 for COMPUTE).
        macs: Multiply-accumulates (COMPUTE; 0 for moves).
        tile_index: Which data tile of the layer this belongs to.
    """

    op: Opcode
    num_bytes: int = 0
    macs: int = 0
    tile_index: int = 0

    def __post_init__(self) -> None:
        if self.num_bytes < 0 or self.macs < 0:
            raise ValueError("instruction sizes must be non-negative")
        if self.op is Opcode.COMPUTE and self.num_bytes:
            raise ValueError("COMPUTE moves no bytes")
        if self.op is not Opcode.COMPUTE and self.macs:
            raise ValueError("moves perform no MACs")


def lower_layer(layer: Layer, soc: SoCConfig) -> List[Instruction]:
    """Lower a layer into its per-data-tile instruction stream.

    Each data tile of the scratchpad tiling plan becomes
    ``MVIN(weights slice) MVIN(input slice) COMPUTE MVOUT(output
    slice)``; MEM layers lower to pure ``MVIN``/``MVOUT`` streams.
    Totals are conserved: summed bytes equal the layer's load/store
    accounting and summed MACs equal ``layer.macs``.
    """
    if layer.kind is LayerKind.MEM:
        return [
            Instruction(Opcode.MVIN, num_bytes=layer.total_load_bytes),
            Instruction(Opcode.MVOUT, num_bytes=layer.total_store_bytes),
        ]

    plan = plan_tiling(layer, soc)
    tiles = plan.tiling_factor
    instructions: List[Instruction] = []
    # Integer-exact splitting: distribute remainders over early tiles.
    weight_total = layer.weight_bytes + layer.bias_bytes
    input_total = layer.input_bytes + plan.refetch_bytes
    output_total = layer.output_bytes
    macs_total = layer.macs
    for i in range(tiles):
        w = _split(weight_total, tiles, i)
        a = _split(input_total, tiles, i)
        o = _split(output_total, tiles, i)
        m = _split(macs_total, tiles, i)
        if w:
            instructions.append(
                Instruction(Opcode.MVIN, num_bytes=w, tile_index=i)
            )
        if a:
            instructions.append(
                Instruction(Opcode.MVIN, num_bytes=a, tile_index=i)
            )
        instructions.append(
            Instruction(Opcode.COMPUTE, macs=m, tile_index=i)
        )
        if o:
            instructions.append(
                Instruction(Opcode.MVOUT, num_bytes=o, tile_index=i)
            )
    return instructions


def _split(total: int, parts: int, index: int) -> int:
    """Size of the ``index``-th of ``parts`` near-equal integer splits."""
    base = total // parts
    extra = 1 if index < total % parts else 0
    return base + extra


def stream_totals(instructions: List[Instruction]) -> dict:
    """Aggregate bytes/MACs of a stream (conservation checks)."""
    loads = sum(i.num_bytes for i in instructions if i.op is Opcode.MVIN)
    stores = sum(i.num_bytes for i in instructions if i.op is Opcode.MVOUT)
    macs = sum(i.macs for i in instructions if i.op is Opcode.COMPUTE)
    return {"load_bytes": loads, "store_bytes": stores, "macs": macs}


def compute_rate_for(layer: Layer, soc: SoCConfig) -> float:
    """Sustained MACs/cycle one tile achieves on this layer."""
    util = effective_pe_utilization(
        layer, soc.tile.array_rows, soc.tile.array_cols
    )
    if util <= 0:
        return 0.0
    return soc.tile.effective_macs_per_cycle * util
