"""The engine's reference oracle: a from-scratch solve and a
single-step loop.

:func:`solve_block_times` derives every running job's block time from
first principles — Algorithm 1 predictions through
:meth:`~repro.core.latency.BlockCost.predict` and the validated
dict-based arbiter (:func:`~repro.memory.arbiter.allocate_bandwidth`)
— without the engine's runtime tables, per-job slot caches or inlined
water-fill.  :func:`run_reference` drives a
:class:`~repro.sim.engine.Simulator` to completion one event at a
time on that solve, with no epoch reuse and no fused decision hook.

The engine's horizon loop must match both bit for bit: the tests pin
it over random scenarios and states, and ``REPRO_CHECK=1``
spot-checks the engine's epoch solve against :func:`solve_block_times`
during a run.
"""

from __future__ import annotations

from typing import Dict

from repro.memory.arbiter import allocate_bandwidth
from repro.sim.engine import (
    _COMPLETION_EPS,
    _MIN_DT,
    SimResult,
    SimulationError,
    Simulator,
)

_INF = float("inf")


def solve_block_times(sim: Simulator) -> Dict[str, float]:
    """Per unstalled running job: cycles its current block needs under
    the simulator's current allocation."""
    mem = sim.mem
    dram_bw = mem.dram_bandwidth
    active = [j for j in sim.running if not j.is_stalled(sim.now)]
    demands: Dict[str, float] = {}
    t_full: Dict[str, float] = {}
    for job in active:
        cost = job.current_block
        full = cost.predict(
            job.tiles, dram_bw, mem.l2_bandwidth, sim.soc.overlap_f
        )
        t_full[job.job_id] = full
        demands[job.job_id] = (
            cost.from_dram_bytes / full if full > 0 else 0.0
        )
    caps = {j.job_id: j.bw_cap for j in active if j.bw_cap is not None}
    # Achieved total bandwidth degrades when the co-runners' regulated
    # demand oversubscribes the channel (row-buffer thrash under
    # interleaving); throttled systems that keep the total under the
    # peak retain single-stream efficiency.
    shares: Dict[str, float] = {}
    if demands:
        wants = {
            jid: min(d, caps.get(jid, _INF)) for jid, d in demands.items()
        }
        total_wants = sum(wants.values())
        streams = sum(1 for w in wants.values() if w > 0)
        effective = mem.dram.effective_bandwidth(
            streams, oversubscribed=total_wants > dram_bw
        )
        shares = allocate_bandwidth(demands, effective, caps)
    times: Dict[str, float] = {}
    for job in active:
        jid = job.job_id
        from_dram = job.current_block.from_dram_bytes
        share = shares.get(jid, 0.0)
        if from_dram <= 0:
            times[jid] = t_full[jid]
        elif share <= 0:
            times[jid] = _INF
        else:
            times[jid] = max(t_full[jid], from_dram / share)
    return times


def run_reference(sim: Simulator) -> SimResult:
    """Run a freshly built ``sim`` to completion one event per step:
    dispatch, decide (``decide()`` plus a controller apply), solve
    from scratch, advance to the next event, retire."""
    while len(sim.finished) < len(sim.jobs):
        sim.events += 1
        if sim.events > sim.max_events:
            raise SimulationError(
                f"exceeded {sim.max_events} events at cycle "
                f"{sim.now:,.0f}"
            )
        if sim.next_arrival <= sim.now + _COMPLETION_EPS:
            sim.dispatch_arrivals()
        sim.controller.apply(sim.policy.decide(sim))
        sim.validate()
        sim.block_time_recomputes += 1
        if not _step(sim, solve_block_times(sim)):
            if sim.has_pending_arrivals:
                # Idle gap: jump to the next arrival.
                sim.now = sim.next_arrival
                continue
            raise SimulationError(
                f"deadlock at cycle {sim.now:,.0f}: "
                f"{len(sim.ready)} ready, {len(sim.running)} running"
            )
    return sim.result()


def _step(sim: Simulator, times: Dict[str, float]) -> bool:
    """Advance to the next event under ``times`` and retire every
    block that completes there; False when no event can occur."""
    now = sim.now
    best = _INF
    if sim.has_pending_arrivals:
        c = sim.next_arrival - now
        if c >= 0:
            best = c
    for job in sim.running:
        if now < job.stall_until:
            c = job.stall_until - now
        else:
            T = times[job.job_id]
            if T == _INF:
                continue
            c = (1.0 - job.progress) * T
        if 0 <= c < best:
            best = c
    if best == _INF:
        return False
    dt = max(best, _MIN_DT)
    completed = []
    for job in sim.running:
        if now < job.stall_until:
            continue
        T = times[job.job_id]
        if T == _INF or T <= 0:
            continue
        job.progress = min(1.0, job.progress + dt / T)
        if job.progress >= 1.0 - _COMPLETION_EPS:
            completed.append(job)
    sim.now = now + dt
    for job in completed:
        sim.retire_block(job)
    return True
