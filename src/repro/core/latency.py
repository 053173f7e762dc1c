"""Algorithm 1: latency and memory-traffic estimation.

The MoCA runtime predicts a layer's latency from first principles:

- **COMPUTE layers** (convolutions, fully-connected): the ideal compute
  time is ``Total_MAC / num_PEs``; the ideal memory time accounts for
  data movement across the *full* memory system — everything transits
  the shared L2 (``Total_MEM / L2_BW``) and the subset that misses
  (weights, outputs, biases, plus inputs and data tiles that cannot
  stay resident) pays DRAM bandwidth (``From_DRAM / DRAM_BW``).  The
  two overlap according to the SoC's ``overlap_f`` ability:
  ``Prediction = max(C, M) + min(C, M) * overlap_f`` — ``overlap_f = 0``
  models perfectly decoupled access/execute, ``1`` full serialization.
- **MEM layers** (residual adds, unfused poolings): no compute term;
  latency is the sum of DRAM and L2 transit time for their traffic.

The paper validates this estimator within 10 % of FireSim RTL
measurements; our benchmark ``bench_latency_validation`` replays that
check against the fluid simulator.

Besides the per-layer API, this module derives *block costs* — the
static shape numbers of a layer block — so the simulator and runtime
can re-evaluate predictions under changing resource allocations
(tiles, bandwidth share) in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.accelerator.tile import max_useful_tiles
from repro.accelerator.tiling import plan_tiling
from repro.config import SoCConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.blocks import LayerBlock, partition_into_blocks
from repro.models.graph import Network
from repro.models.layers import (
    Layer,
    LayerKind,
    PoolLayer,
    ConcatLayer,
    ResidualAddLayer,
    effective_pe_utilization,
)


class EstimationError(ValueError):
    """Raised on invalid estimation inputs."""


@dataclass(frozen=True)
class LayerEstimate:
    """Algorithm 1's outputs for one layer.

    Attributes:
        name: Layer name.
        kind: COMPUTE or MEM.
        compute_ideal: Ideal compute-only cycles (0 for MEM layers).
        memory_ideal: Ideal memory-only cycles.
        from_dram_bytes: Traffic that reaches DRAM.
        total_mem_bytes: Traffic that reaches the shared L2.
        prediction: Estimated latency in cycles.
        bw_demand: DRAM bandwidth demand in bytes/cycle
            (``From_DRAM / Prediction``, Algorithm 2 line 4).
    """

    name: str
    kind: LayerKind
    compute_ideal: float
    memory_ideal: float
    from_dram_bytes: float
    total_mem_bytes: float
    prediction: float
    bw_demand: float


def _dram_input_bytes(
    layer: Layer, mem: MemoryHierarchy, num_sharers: int
) -> float:
    """DRAM-side input traffic of a MEM layer (Alg. 1 line 21).

    The residual add's skip operand (``InputB``) was produced many
    layers earlier and always refetches from DRAM.  Pooling / concat
    inputs were just produced; they refetch only if they cannot stay
    L2-resident.
    """
    if isinstance(layer, ResidualAddLayer):
        return float(layer.skip_operand_bytes)
    if isinstance(layer, (PoolLayer, ConcatLayer)):
        if mem.input_cached(layer.input_bytes, num_sharers):
            return 0.0
        return float(layer.input_bytes)
    # Unknown MEM layer: be conservative, refetch everything.
    return float(layer.input_bytes)


def estimate_layer(
    layer: Layer,
    soc: SoCConfig,
    mem: Optional[MemoryHierarchy] = None,
    num_tiles: int = 1,
    num_sharers: int = 1,
    dram_bw: Optional[float] = None,
) -> LayerEstimate:
    """Run Algorithm 1 on a single layer.

    Args:
        layer: The layer to estimate.
        soc: SoC configuration (PE counts, overlap_f).
        mem: Memory hierarchy; built from ``soc`` when omitted.
        num_tiles: Accelerator tiles assigned to this layer.
        num_sharers: Applications sharing the L2 (capacity pressure).
        dram_bw: DRAM bandwidth available to this layer in bytes/cycle;
            defaults to the hierarchy's full usable bandwidth.

    Returns:
        The populated :class:`LayerEstimate`.
    """
    if num_tiles <= 0:
        raise EstimationError("num_tiles must be positive")
    if num_sharers <= 0:
        raise EstimationError("num_sharers must be positive")
    if mem is None:
        mem = MemoryHierarchy.from_soc(soc)
    bw = mem.dram_bandwidth if dram_bw is None else dram_bw
    if bw <= 0:
        raise EstimationError("dram_bw must be positive")
    l2_bw = mem.l2_bandwidth

    if layer.kind is LayerKind.COMPUTE:
        # Compute-only time at 100 % of the assigned PEs (derated by
        # array utilization for thin layers and by the sublinear
        # multi-tile speedup).
        tiles = min(num_tiles, max_useful_tiles(layer, soc))
        util = effective_pe_utilization(
            layer, soc.tile.array_rows, soc.tile.array_cols
        )
        compute_ideal = layer.macs / (
            tiles ** soc.multi_tile_alpha
            * soc.tile.effective_macs_per_cycle
            * util
        )

        plan = plan_tiling(layer, soc)
        total_mem = float(layer.total_mem_bytes + plan.refetch_bytes)
        from_dram = float(
            layer.weight_bytes + layer.output_bytes + layer.bias_bytes
        )
        if not mem.input_cached(layer.input_bytes, num_sharers):
            from_dram += layer.input_bytes
        if not mem.tile_cached(plan.per_tile_bytes, num_sharers):
            from_dram += plan.tiling_factor * plan.per_tile_bytes

        memory_ideal = from_dram / bw + total_mem / l2_bw
        hi = max(compute_ideal, memory_ideal)
        lo = min(compute_ideal, memory_ideal)
        prediction = hi + lo * soc.overlap_f
    else:
        compute_ideal = 0.0
        total_mem = float(layer.total_mem_bytes)
        from_dram = _dram_input_bytes(layer, mem, num_sharers) + float(
            layer.output_bytes
        )
        memory_ideal = from_dram / bw + total_mem / l2_bw
        prediction = memory_ideal

    bw_demand = from_dram / prediction if prediction > 0 else 0.0
    return LayerEstimate(
        name=layer.name,
        kind=layer.kind,
        compute_ideal=compute_ideal,
        memory_ideal=memory_ideal,
        from_dram_bytes=from_dram,
        total_mem_bytes=total_mem,
        prediction=prediction,
        bw_demand=bw_demand,
    )


#: Bound on each :class:`BlockCost`'s per-instance predict memo.
#: Sized far above any single simulation's working set (the engine
#: probes tens of distinct points per block) so eviction only ever
#: engages on long continuous-style runs accumulating contended
#: bandwidth points across many simulations.
_PREDICT_MEMO_CAP = 4096


@dataclass(frozen=True)
class BlockCost:
    """Static shape accounting of a layer block, reusable across
    resource allocations.

    ``compute_terms`` stores, per COMPUTE layer, the cycles the layer
    needs on a single tile and the maximum tile count it can exploit,
    so :meth:`compute_ideal` evaluates any allocation in O(layers).

    Attributes:
        name: Block name (first..last layer).
        kind: COMPUTE if the block computes at all, else MEM.
        compute_terms: ``(single_tile_cycles, max_useful_tiles)`` pairs.
        from_dram_bytes: DRAM traffic of the whole block.
        total_mem_bytes: L2 traffic of the whole block.
        scaling_alpha: Multi-tile speedup exponent (from the SoC).
    """

    name: str
    kind: LayerKind
    compute_terms: Tuple[Tuple[float, int], ...]
    from_dram_bytes: float
    total_mem_bytes: float
    scaling_alpha: float = 1.0

    def compute_ideal(self, num_tiles: int) -> float:
        """Ideal compute cycles on ``num_tiles`` tiles."""
        if num_tiles <= 0:
            raise EstimationError("num_tiles must be positive")
        return sum(
            cycles / min(num_tiles, max_tiles) ** self.scaling_alpha
            for cycles, max_tiles in self.compute_terms
        )

    def memory_ideal(self, dram_bw: float, l2_bw: float) -> float:
        """Ideal memory cycles at the given bandwidths."""
        if dram_bw <= 0 or l2_bw <= 0:
            raise EstimationError("bandwidths must be positive")
        return self.from_dram_bytes / dram_bw + self.total_mem_bytes / l2_bw

    def predict(
        self, num_tiles: int, dram_bw: float, l2_bw: float, overlap_f: float
    ) -> float:
        """Algorithm 1 latency for this block under an allocation.

        Memoised per instance: the simulator and the policies evaluate
        the same (tiles, bandwidths) points thousands of times per run,
        and the inputs fully determine the output.
        """
        key = (num_tiles, dram_bw, l2_bw, overlap_f)
        memo = self.__dict__.get("_predict_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_predict_memo", memo)
        # Identity-pinned LRU: ``predict`` is a pure function of its
        # key, so evicting an entry can never change a result — a
        # re-probed point recomputes the identical float.  The bound
        # matters because block costs are process-cached for their
        # lifetime while contended bandwidth points vary continuously:
        # a long continuous-style run would otherwise grow each memo
        # without limit.  Hits reinsert their key (move-to-end), so
        # insertion order is recency order and the oldest entry is
        # the least recently used.
        cached = memo.pop(key, None)
        if cached is not None:
            memo[key] = cached
            _CACHE_STATS["predict_memo_hits"] += 1
            return cached
        _CACHE_STATS["predict_memo_misses"] += 1
        compute = self.compute_ideal(num_tiles)
        memory = self.memory_ideal(dram_bw, l2_bw)
        hi = max(compute, memory)
        lo = min(compute, memory)
        result = hi + lo * overlap_f
        if len(memo) >= _PREDICT_MEMO_CAP:
            del memo[next(iter(memo))]
        memo[key] = result
        return result

    def clear_predict_memo(self) -> None:
        """Drop this block's :meth:`predict` memo (it rebuilds
        transparently; benchmarks and tests use this to time or
        compare against the unmemoised path)."""
        self.__dict__.pop("_predict_memo", None)

    def __getstate__(self) -> dict:
        """Pickle only the declared fields.

        The per-instance ``_predict_memo`` lives in ``__dict__`` and
        would otherwise ship inside every pickled spec/cost payload —
        a warm parent process was serializing potentially huge memo
        dicts to every pool worker.  The memo is a pure cache and
        rebuilds transparently, so it is dropped here; a pickle of a
        warm instance is byte-for-byte the pickle of a cold one.
        """
        state = dict(self.__dict__)
        state.pop("_predict_memo", None)
        return state

    def bw_demand(
        self, num_tiles: int, dram_bw: float, l2_bw: float, overlap_f: float
    ) -> float:
        """Unconstrained DRAM demand (Alg. 2 line 4) in bytes/cycle."""
        prediction = self.predict(num_tiles, dram_bw, l2_bw, overlap_f)
        if prediction <= 0:
            return 0.0
        return self.from_dram_bytes / prediction


def build_block_cost(
    block: LayerBlock,
    soc: SoCConfig,
    mem: Optional[MemoryHierarchy] = None,
    num_sharers: int = 1,
) -> BlockCost:
    """Aggregate Algorithm 1's accounting over a layer block."""
    if mem is None:
        mem = MemoryHierarchy.from_soc(soc)
    terms = []
    from_dram = 0.0
    total_mem = 0.0
    for layer in block.layers:
        est = estimate_layer(
            layer, soc, mem, num_tiles=1, num_sharers=num_sharers
        )
        from_dram += est.from_dram_bytes
        total_mem += est.total_mem_bytes
        if layer.kind is LayerKind.COMPUTE:
            terms.append((est.compute_ideal, max_useful_tiles(layer, soc)))
    return BlockCost(
        name=block.name,
        kind=block.kind,
        compute_terms=tuple(terms),
        from_dram_bytes=from_dram,
        total_mem_bytes=total_mem,
        scaling_alpha=soc.multi_tile_alpha,
    )


class RuntimeTable:
    """Structure-of-arrays block-time tables for one network.

    The simulator's hot loop evaluates ``BlockCost.predict`` only at a
    tiny, fixed grid of points: every block of the network crossed with
    every tile count the SoC can grant, at the constant per-simulation
    bandwidths.  This table evaluates that whole grid in one batch
    (with numpy array ops when available — the fpgahart-style SoA
    layout — or a scalar fallback) and exposes it as plain nested
    lists, so the per-event solve is pure list indexing: no memo-dict
    probes, no tuple-key construction, no per-call arithmetic.

    Attributes:
        t_full_rows: ``t_full_rows[block_idx][tiles - 1]`` — the
            unconstrained Algorithm 1 prediction, bit-identical to
            ``blocks[block_idx].predict(tiles, dram_bw, l2_bw,
            overlap_f)``.
        demand_rows: ``demand_rows[block_idx][tiles - 1]`` — the DRAM
            demand ``from_dram / t_full`` (0.0 when ``t_full`` is 0),
            bit-identical to ``BlockCost.bw_demand``.
        from_dram: Per-block DRAM traffic in bytes.
    """

    __slots__ = ("t_full_rows", "demand_rows", "from_dram")

    def __init__(self, t_full_rows, demand_rows, from_dram) -> None:
        self.t_full_rows = t_full_rows
        self.demand_rows = demand_rows
        self.from_dram = from_dram


def _build_runtime_table(
    cost: "NetworkCost",
    dram_bw: float,
    l2_bw: float,
    overlap_f: float,
    max_tiles: int,
) -> RuntimeTable:
    """Batch-evaluate a network's (block x tiles) prediction grid.

    The numpy path vectorizes over the tile axis but accumulates the
    per-layer compute terms *sequentially in term order* and keeps the
    ``hi + lo * overlap_f`` combination as separate elementwise ops —
    float64 elementwise arithmetic is IEEE-identical to Python floats
    only when the operation order matches, and ``predict`` sums its
    terms left to right.  ``tolist()`` then yields exact Python
    floats.  The scalar fallback (no numpy in the environment) calls
    ``predict`` itself, so both builds are bit-identical to the
    memoised scalar path by construction (property-tested in
    ``tests/test_vectorized.py``).
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is baked into CI
        np = None
    t_full_rows = []
    demand_rows = []
    from_dram = []
    if np is None:  # pragma: no cover - numpy is baked into CI
        for block in cost.blocks:
            row = [
                block.predict(t, dram_bw, l2_bw, overlap_f)
                for t in range(1, max_tiles + 1)
            ]
            t_full_rows.append(row)
            demand_rows.append([
                block.from_dram_bytes / full if full > 0 else 0.0
                for full in row
            ])
            from_dram.append(block.from_dram_bytes)
        return RuntimeTable(t_full_rows, demand_rows, from_dram)
    tiles = np.arange(1, max_tiles + 1)
    zeros = np.zeros(max_tiles)
    for block in cost.blocks:
        compute = zeros
        for cycles, max_t in block.compute_terms:
            compute = compute + (
                cycles / np.minimum(tiles, max_t) ** block.scaling_alpha
            )
        memory = (
            block.from_dram_bytes / dram_bw
            + block.total_mem_bytes / l2_bw
        )
        hi = np.maximum(compute, memory)
        lo = np.minimum(compute, memory)
        full = hi + lo * overlap_f
        demand = np.divide(
            block.from_dram_bytes, full,
            out=np.zeros(max_tiles), where=full > 0,
        )
        t_full_rows.append(full.tolist())
        demand_rows.append(demand.tolist())
        from_dram.append(block.from_dram_bytes)
    return RuntimeTable(t_full_rows, demand_rows, from_dram)


@dataclass(frozen=True)
class NetworkCost:
    """Per-block costs of a whole network, ready for the simulator.

    Attributes:
        network_name: Source network.
        blocks: Block costs in execution order.
    """

    network_name: str
    blocks: Tuple[BlockCost, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise EstimationError("network cost needs at least one block")

    def runtime_table(
        self,
        dram_bw: float,
        l2_bw: float,
        overlap_f: float,
        max_tiles: int,
    ) -> RuntimeTable:
        """The (block x tiles) :class:`RuntimeTable` at these
        bandwidths, memoised per instance (the simulator evaluates a
        single bandwidth point per run, and network costs are shared
        across every simulation of the process via
        ``_NETWORK_COST_CACHE``)."""
        key = (dram_bw, l2_bw, overlap_f, max_tiles)
        tables = self.__dict__.get("_runtime_tables")
        if tables is None:
            tables = {}
            object.__setattr__(self, "_runtime_tables", tables)
        table = tables.get(key)
        if table is None:
            table = _build_runtime_table(
                self, dram_bw, l2_bw, overlap_f, max_tiles
            )
            tables[key] = table
        return table

    def __getstate__(self) -> dict:
        """Pickle only the declared fields — the runtime-table cache
        (like :class:`BlockCost`'s predict memo) rebuilds
        transparently and must not inflate worker payloads."""
        state = dict(self.__dict__)
        state.pop("_runtime_tables", None)
        return state

    def total_prediction(
        self, num_tiles: int, dram_bw: float, l2_bw: float, overlap_f: float
    ) -> float:
        """End-to-end latency estimate under a fixed allocation."""
        return sum(
            b.predict(num_tiles, dram_bw, l2_bw, overlap_f)
            for b in self.blocks
        )

    def total_from_dram(self) -> float:
        """Whole-network DRAM traffic in bytes."""
        return sum(b.from_dram_bytes for b in self.blocks)

    def avg_bw_demand(
        self, num_tiles: int, dram_bw: float, l2_bw: float, overlap_f: float
    ) -> float:
        """Network-average DRAM demand (Alg. 3 line 7's EstimatedAvg_BW)."""
        total = self.total_prediction(num_tiles, dram_bw, l2_bw, overlap_f)
        if total <= 0:
            return 0.0
        return self.total_from_dram() / total


_NetworkCostKey = Tuple[
    str, str, SoCConfig, MemoryHierarchy, int, int
]

_NETWORK_COST_CACHE: Dict[_NetworkCostKey, NetworkCost] = {}

#: The cache telemetry contract: every counter name consumers
#: (``SimResult``, ``CellResult``) carry.  Code
#: that splats counter deltas into those dataclasses iterates THIS
#: tuple, so adding a counter here requires adding the matching field
#: there (a loud TypeError at the splat site, caught by any test that
#: runs a simulation) rather than silently dropping telemetry.
CACHE_COUNTER_FIELDS: Tuple[str, ...] = (
    "cost_cache_hits",
    "cost_cache_misses",
    "predict_memo_hits",
    "predict_memo_misses",
)

#: Process-global cache telemetry.  ``cost_cache_*`` counts
#: :func:`build_network_cost` probes of ``_NETWORK_COST_CACHE``;
#: ``predict_memo_*`` counts :meth:`BlockCost.predict` memo probes.
#: The parallel executor snapshots these around each cell so warm
#: workers are observable (a pre-warmed worker's cells run at ~100 %
#: cost-cache hit rate).
_CACHE_STATS: Dict[str, int] = {name: 0 for name in CACHE_COUNTER_FIELDS}

#: Open :class:`track_cache_deltas` frames, kept only so
#: :func:`reset_cache_stats` can re-base their start snapshots.  The
#: probe sites stay plain inline increments — the predict-memo path
#: runs millions of probes per sweep and must not pay a function call
#: or a frame loop per probe.
_DELTA_FRAMES: list = []


def cache_stats() -> Dict[str, int]:
    """Snapshot of the process-global cache hit/miss counters."""
    return dict(_CACHE_STATS)


def reset_cache_stats() -> None:
    """Zero the cache telemetry counters (the caches stay intact).

    Open :func:`track_cache_deltas` frames are re-based so a run in
    flight keeps attributing its own probes correctly across the
    reset (its delta can never go negative).
    """
    for frame in _DELTA_FRAMES:
        for name in CACHE_COUNTER_FIELDS:
            # Preserve the probes accumulated so far: with the globals
            # about to drop to zero, delta = current' - start stays
            # continuous iff start shifts down by the current counts.
            frame._start[name] -= _CACHE_STATS[name]
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


class track_cache_deltas:
    """Context manager attributing cache probes to one run.

    Entering snapshots the process-global counters and yields a
    ``{counter: 0}`` dict; exiting fills that dict with the probes
    made while the frame was open (read it *after* the ``with``
    block).  Frames nest: an inner run's probes count toward both the
    inner and the enclosing frame (a sweep cell's frame deliberately
    contains its simulation's frame), sibling runs never leak into
    each other, and :func:`reset_cache_stats` mid-frame cannot drive
    the delta negative — the failure modes the old "diff two
    snapshots taken at construction time" convention had.
    ``SimResult`` and ``CellResult`` cache deltas are measured
    through this; the probe hot paths stay untouched inline
    increments.
    """

    def __enter__(self) -> Dict[str, int]:
        self._start = dict(_CACHE_STATS)
        self._delta = {name: 0 for name in CACHE_COUNTER_FIELDS}
        _DELTA_FRAMES.append(self)
        return self._delta

    def __exit__(self, *exc_info) -> None:
        # Remove by identity, not equality (list.remove would match
        # another frame comparing equal).
        for i in range(len(_DELTA_FRAMES) - 1, -1, -1):
            if _DELTA_FRAMES[i] is self:
                del _DELTA_FRAMES[i]
                break
        for name in CACHE_COUNTER_FIELDS:
            self._delta[name] = _CACHE_STATS[name] - self._start[name]


def clear_network_cost_cache() -> None:
    """Drop all memoised :class:`NetworkCost` entries.

    Intended for tests that mutate model definitions in place and for
    freshly forked experiment workers that want a cold start.
    """
    _NETWORK_COST_CACHE.clear()


def clear_predict_memos() -> None:
    """Drop the per-instance :meth:`BlockCost.predict` memos of every
    cached network cost (for benchmarks that need cold-start timing
    symmetry; the memos rebuild transparently)."""
    for cost in _NETWORK_COST_CACHE.values():
        for block in cost.blocks:
            block.clear_predict_memo()


def build_network_cost(
    network: Network,
    soc: SoCConfig,
    mem: Optional[MemoryHierarchy] = None,
    num_sharers: int = 1,
    max_layers_per_block: int = 6,
) -> NetworkCost:
    """Partition a network into blocks and compute their costs.

    Results are cached on (network identity, full SoC configuration,
    memory-hierarchy shape, sharer count, block granularity) because
    the experiment harness builds costs for the same seven networks
    thousands of times.  Both config dataclasses are frozen, so the
    key captures every configuration parameter the block accounting
    reads; the network itself is identified by name plus its
    order-sensitive :attr:`~repro.models.graph.Network.
    structural_digest`, which chains every layer's full structural
    identity in execution order — a modified model reusing a zoo
    name cannot alias, and neither can one that merely *reorders*
    layers (aggregate totals like MAC/weight sums are order-blind;
    the digest is not).
    """
    if mem is None:
        mem = MemoryHierarchy.from_soc(soc)
    key: _NetworkCostKey = (
        network.name,
        network.structural_digest,
        soc,
        mem,
        num_sharers,
        max_layers_per_block,
    )
    if key in _NETWORK_COST_CACHE:
        _CACHE_STATS["cost_cache_hits"] += 1
        return _NETWORK_COST_CACHE[key]
    _CACHE_STATS["cost_cache_misses"] += 1
    blocks = partition_into_blocks(
        network, max_layers_per_block=max_layers_per_block
    )
    cost = NetworkCost(
        network_name=network.name,
        blocks=tuple(
            build_block_cost(b, soc, mem, num_sharers) for b in blocks
        ),
    )
    _NETWORK_COST_CACHE[key] = cost
    return cost


def warm_network_cost_cache(
    networks: Sequence[Network],
    soc: SoCConfig,
    mem: Optional[MemoryHierarchy] = None,
    num_sharers: int = 1,
) -> int:
    """Pre-build network costs and pre-evaluate their predict memos.

    For every network, builds (or cache-hits) its :class:`NetworkCost`
    and evaluates each block's :meth:`BlockCost.predict` memo at every
    tile count the SoC can grant, at full DRAM/L2 bandwidth — exactly
    the ``T_full`` points the reference block-time solve and the
    workload generator's isolated/QoS sizing evaluate, so a warmed
    process serves those lookups from memo from the first cell.  The
    parallel executor's worker initializer calls this once per worker
    process.

    Returns:
        The number of networks warmed.
    """
    if mem is None:
        mem = MemoryHierarchy.from_soc(soc)
    for network in networks:
        cost = build_network_cost(network, soc, mem, num_sharers)
        for block in cost.blocks:
            for tiles in range(1, soc.num_tiles + 1):
                block.predict(
                    tiles, mem.dram_bandwidth, mem.l2_bandwidth,
                    soc.overlap_f,
                )
        # The engine reads these exact points from the SoA runtime
        # table instead of the memo; warm it alongside.
        cost.runtime_table(
            mem.dram_bandwidth, mem.l2_bandwidth, soc.overlap_f,
            soc.num_tiles,
        )
    return len(networks)


def estimate_network(
    network: Network,
    soc: SoCConfig,
    mem: Optional[MemoryHierarchy] = None,
    num_tiles: int = 1,
    num_sharers: int = 1,
    dram_bw: Optional[float] = None,
) -> Tuple[float, Sequence[LayerEstimate]]:
    """Estimate every layer of a network under a fixed allocation.

    Returns:
        ``(total_cycles, per_layer_estimates)``.
    """
    if mem is None:
        mem = MemoryHierarchy.from_soc(soc)
    estimates = [
        estimate_layer(layer, soc, mem, num_tiles, num_sharers, dram_bw)
        for layer in network.layers
    ]
    return sum(e.prediction for e in estimates), estimates
