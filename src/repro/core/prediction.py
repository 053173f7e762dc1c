"""Remaining-latency prediction with suffix-sum caching.

Both MoCA's runtime (Algorithm 2's ``remain_prediction``) and
Planaria's urgency estimate need "predicted latency of the network's
remaining blocks" at every block boundary.  Computed naively that is
O(blocks) per query; this helper caches suffix sums per
(network, tile-count) so each query is O(1).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import SoCConfig
from repro.core.latency import NetworkCost
from repro.memory.hierarchy import MemoryHierarchy


class RemainingPrediction:
    """Suffix-sum cache of per-block latency predictions.

    Attributes:
        soc: SoC configuration (overlap_f, tile shape).
        mem: Memory hierarchy (bandwidths).
    """

    def __init__(self, soc: SoCConfig, mem: MemoryHierarchy) -> None:
        self.soc = soc
        self.mem = mem
        self._suffixes: Dict[Tuple[str, int], List[float]] = {}

    def _suffix(self, cost: NetworkCost, tiles: int) -> List[float]:
        key = (cost.network_name, tiles)
        if key not in self._suffixes:
            dram_bw = self.mem.dram_bandwidth
            l2_bw = self.mem.l2_bandwidth
            overlap_f = self.soc.overlap_f
            suffix = [0.0] * (len(cost.blocks) + 1)
            for i in range(len(cost.blocks) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + cost.blocks[i].predict(
                    tiles, dram_bw, l2_bw, overlap_f
                )
            self._suffixes[key] = suffix
        return self._suffixes[key]

    def suffix(self, cost: NetworkCost, tiles: int) -> List[float]:
        """The suffix-sum list for ``(cost, tiles)``: entry ``i`` is
        the predicted cycles for blocks ``i`` onward (last entry 0).

        Hot-path accessor: callers that query many block indices for
        one (network, tiles) pair index this list directly instead of
        paying :meth:`remaining`'s key build per query.  Read-only by
        convention — the list is the live cache entry.
        """
        if tiles <= 0:
            raise ValueError("tiles must be positive")
        return self._suffix(cost, tiles)

    def remaining(self, cost: NetworkCost, block_idx: int, tiles: int) -> float:
        """Predicted cycles for blocks ``block_idx`` onward on ``tiles``.

        ``block_idx == len(blocks)`` returns 0 (network finished).
        """
        if tiles <= 0:
            raise ValueError("tiles must be positive")
        if not 0 <= block_idx <= len(cost.blocks):
            raise ValueError(
                f"block_idx {block_idx} outside 0..{len(cost.blocks)}"
            )
        return self._suffix(cost, tiles)[block_idx]

    def total(self, cost: NetworkCost, tiles: int) -> float:
        """Whole-network prediction on ``tiles`` tiles."""
        return self.remaining(cost, 0, tiles)

    def clear(self) -> None:
        """Drop all cached suffixes."""
        self._suffixes.clear()
