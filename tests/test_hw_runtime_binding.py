"""Cross-layer tests: the runtime's decisions drive the HW engine.

Algorithm 2's ``ConfigureHW(window, threshold_load)`` output must be a
valid configuration for the Section III-B hardware FSM, and the FSM
must then enforce the request rate the decision encodes — tying the
analytical model to the cycle-level hardware behaviour.
"""

import pytest

from repro.accelerator.dma import MEM_REQUEST_BYTES
from repro.accelerator.moca_hw import MoCAHardwareEngine
from repro.config import DEFAULT_SOC
from repro.core.latency import build_network_cost
from repro.core.runtime import MoCARuntime
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model

SOC = DEFAULT_SOC
MEM = MemoryHierarchy.from_soc(SOC)


def _contended_decision():
    """Produce a throttled decision by saturating the scoreboard."""
    runtime = MoCARuntime(SOC, MEM)
    cost = build_network_cost(build_model("alexnet"), SOC, MEM)
    block = max(cost.blocks, key=lambda b: b.from_dram_bytes)
    for i in range(3):
        runtime.update_app(f"bg{i}", block, 2, 5, 1e6, 1e7)
    decision = runtime.update_app("victim", block, 2, 5, 1e6, 1e7)
    assert decision.contention
    return decision


class TestApplyTo:
    def test_decision_programs_engine(self):
        decision = _contended_decision()
        engine = MoCAHardwareEngine()
        engine.configure(window=decision.window,
                         threshold_load=decision.threshold_load)
        assert engine.enabled
        assert engine.window == decision.window
        assert engine.thresholder.threshold_load == decision.threshold_load

    def test_unthrottled_decision_disables_engine(self):
        runtime = MoCARuntime(SOC, MEM)
        cost = build_network_cost(build_model("kws"), SOC, MEM)
        decision = runtime.update_app("solo", cost.blocks[0], 2, 5, 1e6, 1e7)
        engine = MoCAHardwareEngine()
        engine.configure(100, 10)  # previously throttled
        engine.configure(window=decision.window,
                         threshold_load=decision.threshold_load)
        assert not engine.enabled

    def test_engine_rate_matches_decision(self):
        decision = _contended_decision()
        engine = MoCAHardwareEngine()
        engine.configure(window=decision.window,
                         threshold_load=decision.threshold_load)
        assert engine.allowed_rate() == pytest.approx(
            decision.throttle_rate_requests_per_cycle
        )

    def test_fsm_enforces_decided_rate(self):
        """Run the FSM flat out: the achieved request rate must match
        the decision's configured rate.  The real window spans millions
        of cycles, so the check uses a rate-preserving rescale (same
        threshold/window ratio at a testable window length).
        """
        decision = _contended_decision()
        allowed = decision.throttle_rate_requests_per_cycle
        window = 1000
        threshold = max(1, round(allowed * window))
        engine = MoCAHardwareEngine()
        engine.configure(window=window, threshold_load=threshold)
        horizon = window * 20
        issued = 0
        for _ in range(horizon):
            if engine.try_issue():
                issued += 1
            engine.step()
        achieved = issued / horizon
        assert achieved <= (threshold / window) * 1.05
        assert achieved >= (threshold / window) * 0.95

    def test_decided_byte_rate_is_plausible(self):
        """The HW request-rate budget covers the block's *total* L2
        traffic over its predicted duration — at least the DRAM-side
        allocation the runtime granted."""
        decision = _contended_decision()
        byte_rate = (
            decision.throttle_rate_requests_per_cycle * MEM_REQUEST_BYTES
        )
        assert byte_rate >= decision.bw_rate * 0.5
