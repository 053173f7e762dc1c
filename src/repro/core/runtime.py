"""Algorithm 2: MoCA contention detection and hardware update.

For every layer (block) an application is about to run, the runtime:

1. estimates the block's latency and DRAM traffic with Algorithm 1,
   giving its unconstrained bandwidth demand ``BW_rate``;
2. computes the application's **dynamic priority score** — the static
   user priority plus an urgency term, the ratio of the predicted
   remaining-network latency to the slack left before the SLA target;
3. reads co-runners' published bandwidth rates from the scoreboard and
   checks for **overflow**: total demand above the DRAM's maximum;
4. on contention, sheds part of its own demand, proportionally to the
   co-runners' score-weighted bandwidth share (high-score apps shed
   less), and derives the throttle configuration (``threshold_load``
   memory requests per ``window`` cycles) for the MoCA hardware;
5. publishes its new rate and score back to the scoreboard.

The update is *distributed*: each application reconfigures only its own
tile's throttle at its own layer boundaries, exactly like the paper's
runtime, so global bandwidth converges over a few layers rather than
being recomputed centrally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.accelerator.dma import bytes_to_requests
from repro.config import SoCConfig
from repro.core.latency import BlockCost
from repro.core.scoreboard import Scoreboard
from repro.memory.arbiter import allocate_bandwidth
from repro.memory.hierarchy import MemoryHierarchy


@dataclass(frozen=True)
class RuntimeDecision:
    """Outcome of one Algorithm 2 invocation for one application.

    Attributes:
        app_id: The application updated.
        contention: Whether overflow was detected (throttling engaged).
        bw_rate: Allocated DRAM bandwidth rate in bytes/cycle.
        prediction: Updated latency prediction for the block (cycles).
        score: The dynamic priority score used.
        window: MoCA hardware window (cycles); 0 when unthrottled.
        threshold_load: Allowed memory requests per window; 0 when
            unthrottled.
    """

    app_id: str
    contention: bool
    bw_rate: float
    prediction: float
    score: float
    window: int
    threshold_load: int

    @property
    def throttle_rate_requests_per_cycle(self) -> float:
        """The request rate the HW config enforces (inf = unthrottled)."""
        if self.window == 0:
            return float("inf")
        return self.threshold_load / self.window


class MoCARuntime:
    """The per-SoC MoCA runtime system.

    Attributes:
        soc: SoC configuration.
        mem: Shared-memory hierarchy.
        scoreboard: The bandwidth/score lookup table.
        urgency_cap: Upper bound on the ``remain_prediction / slack``
            urgency term, used when the slack is exhausted (the paper
            leaves the negative-slack case unspecified; a saturating
            cap keeps scores finite and maximally urgent).
        min_bw_rate: Floor on an allocation so a throttled app always
            retains forward progress (bytes/cycle).
        overflow_tolerance: Fraction of DRAM bandwidth the summed
            demand must exceed before throttling engages (marginal
            overflows self-resolve through interleaving).
        dram_bw: The DRAM bandwidth the runtime shares out,
            bytes/cycle (fixed for the runtime's lifetime).
        overflow_cut: ``overflow_tolerance * dram_bw``, the overflow
            above which throttling engages, bytes/cycle.
    """

    def __init__(
        self,
        soc: SoCConfig,
        mem: Optional[MemoryHierarchy] = None,
        urgency_cap: float = 100.0,
        min_bw_rate: float = 0.5,
        overflow_tolerance: float = 0.02,
    ) -> None:
        if urgency_cap <= 0:
            raise ValueError("urgency_cap must be positive")
        if min_bw_rate <= 0:
            raise ValueError("min_bw_rate must be positive")
        if overflow_tolerance < 0:
            raise ValueError("overflow_tolerance must be non-negative")
        self.soc = soc
        self.mem = mem if mem is not None else MemoryHierarchy.from_soc(soc)
        self.scoreboard = Scoreboard()
        self.urgency_cap = urgency_cap
        self.min_bw_rate = min_bw_rate
        self.overflow_tolerance = overflow_tolerance
        self.dram_bw = self.mem.dram_bandwidth
        self.overflow_cut = overflow_tolerance * self.dram_bw

    def dynamic_score(
        self, user_priority: float, remain_prediction: float, slack: float
    ) -> float:
        """Algorithm 2 line 6: ``priority + remain_prediction / slack``.

        The urgency term saturates at :attr:`urgency_cap` when slack is
        gone or negative.
        """
        if remain_prediction < 0:
            raise ValueError("remain_prediction must be non-negative")
        if slack <= 0:
            urgency = self.urgency_cap
        else:
            urgency = min(remain_prediction / slack, self.urgency_cap)
        return user_priority + urgency

    def update_app(
        self,
        app_id: str,
        block: BlockCost,
        num_tiles: int,
        user_priority: float,
        remain_prediction: float,
        slack: float,
    ) -> RuntimeDecision:
        """Run Algorithm 2 for ``app_id``'s next block.

        Args:
            app_id: Application identifier.
            block: Cost of the block about to execute.
            num_tiles: Tiles currently assigned to the application.
            user_priority: Static user-given priority.
            remain_prediction: Predicted latency of the network's
                remaining layers (including this block), cycles.
            slack: Time left until the SLA target, cycles.

        Returns:
            The :class:`RuntimeDecision`, already published to the
            scoreboard and carrying the HW throttle configuration.
        """
        if num_tiles <= 0:
            raise ValueError("num_tiles must be positive")
        dram_bw = self.dram_bw
        l2_bw = self.mem.l2_bandwidth

        # Lines 3-4: unconstrained prediction and demand for this block
        # (both served from the BlockCost memo after the first solve).
        prediction = block.predict(
            num_tiles, dram_bw, l2_bw, self.soc.overlap_f
        )
        bw_rate = block.bw_demand(
            num_tiles, dram_bw, l2_bw, self.soc.overlap_f
        )

        demand = bw_rate

        # Line 6: dynamic priority score.
        score = self.dynamic_score(user_priority, remain_prediction, slack)

        # Lines 9-12: co-runner usage from the scoreboard.
        other_demands = self.scoreboard.demands()
        other_demands.pop(app_id, None)
        other_bw = sum(other_demands.values())

        # Line 14: is the system's total memory demand above the
        # maximum DRAM bandwidth?
        overflow = demand + other_bw - dram_bw

        if overflow > self.overflow_cut and demand > 0:
            # Lines 16-18: contention detected.  Shed only the overflow,
            # splitting the bandwidth by weighted water-fill with the
            # dynamic scores as weights: co-runners whose demand fits
            # inside their score-weighted fair share keep it; the rest
            # (including this app when its score is low) split the
            # remainder proportionally to score.  This is the converged
            # behaviour of the paper's per-layer incremental shedding,
            # evaluated from the scoreboard's published demands instead
            # of iterated across layer boundaries.
            demands = dict(other_demands)
            demands[app_id] = demand
            weights = self.scoreboard.scores()
            weights[app_id] = score
            shares = allocate_bandwidth(demands, dram_bw, weights=weights)
            new_rate = min(demand, max(shares[app_id], self.min_bw_rate))
            prediction = block.from_dram_bytes / new_rate + (
                block.total_mem_bytes / l2_bw
            )
            # Throttling caps the memory stream but never the compute
            # portion already accounted for: latency is at least the
            # unthrottled prediction.
            prediction = max(
                prediction,
                block.predict(num_tiles, dram_bw, l2_bw, self.soc.overlap_f),
            )
            bw_rate = new_rate

            # Lines 20-21: hardware configuration. The budget is the
            # block's total request count split across the app's tiles,
            # to be consumed over the predicted duration.
            total_requests = bytes_to_requests(int(block.total_mem_bytes))
            threshold_load = max(1, total_requests // num_tiles)
            window = max(1, int(prediction / num_tiles))
            contention = True
        else:
            # Line 23: no contention, no throttling.
            threshold_load = 0
            window = 0
            contention = False

        # Line 25: publish to the scoreboard.
        self.scoreboard.publish(app_id, bw_rate, demand, score)

        return RuntimeDecision(
            app_id=app_id,
            contention=contention,
            bw_rate=bw_rate,
            prediction=prediction,
            score=score,
            window=window,
            threshold_load=threshold_load,
        )

    def retire_app(self, app_id: str) -> None:
        """Remove a finished application from the scoreboard."""
        self.scoreboard.remove(app_id)

    def reset(self) -> None:
        """Clear all runtime state (new simulation)."""
        self.scoreboard.clear()
