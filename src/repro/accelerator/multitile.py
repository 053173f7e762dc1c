"""Instruction-level co-simulation of tiles sharing DRAM.

Runs one or more tiles' instruction streams (lowered by
:func:`repro.accelerator.isa.lower_layer`) against the shared DRAM:
at every instruction boundary the active ``mvin``/``mvout`` transfers
split the channel bandwidth (demand-proportionally, or capped by
per-app MoCA throttles), while ``compute`` instructions run on each
tile's own array.

Each tile executes its stream strictly in order, one instruction at a
time: its next ``mvin`` waits for its previous ``mvout``, which waits
for its ``compute``.  Transfers and compute overlap only *across*
tiles, never within one (there is no double buffering), so a lone
tile's makespan is its bytes over its granted bandwidth plus its MACs
over its array rate, and a throttle cap stretches only its memory
instructions.

This is the repo's one instruction-level oracle:

- one tenant: the cross-check of Algorithm 1 (the analogue of the
  paper's FireSim validation, ``benchmarks/bench_isa_crosscheck.py``)
  and of what a throttle costs memory- vs compute-bound layers;
- several tenants: the cross-check of the *fluid* engine's contention
  model.  Both abstractions must agree on how much co-location
  stretches memory-bound execution (see ``tests/test_multitile.py``),
  which is the quantity every headline result rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.accelerator.isa import Instruction, Opcode, compute_rate_for
from repro.config import SoCConfig
from repro.memory.arbiter import allocate_bandwidth
from repro.models.layers import Layer

_EPS = 1e-9


@dataclass
class _AppState:
    """Progress of one co-running application's stream."""

    instructions: Sequence[Instruction]
    compute_rate: float             # MACs/cycle of its compute ins
    pc: int = 0
    remaining: float = 0.0          # bytes or MACs left in current ins
    finish_time: Optional[float] = None

    def current(self) -> Optional[Instruction]:
        if self.pc >= len(self.instructions):
            return None
        return self.instructions[self.pc]


@dataclass(frozen=True)
class CoSimResult:
    """Per-application outcome of a co-simulation.

    Attributes:
        finish_times: App id -> completion cycle.
        makespan: Cycle the last app finished.
    """

    finish_times: Dict[str, float]
    makespan: float


class MultiTenantPipelineSim:
    """Instruction-granular co-simulation of tiles sharing DRAM.

    The model is deliberately simple — each app executes its stream in
    order, one instruction at a time, with transfers sharing the DRAM —
    because its job is validation, not speed.  For whole-scenario runs
    use :mod:`repro.sim.engine`.

    Attributes:
        soc: SoC configuration.
        dram_bandwidth: Shared channel bandwidth, bytes/cycle.
    """

    def __init__(self, soc: SoCConfig, dram_bandwidth: float) -> None:
        if dram_bandwidth <= 0:
            raise ValueError("dram_bandwidth must be positive")
        self.soc = soc
        self.dram_bandwidth = dram_bandwidth

    def run(
        self,
        apps: Mapping[str, tuple],
        caps: Optional[Mapping[str, float]] = None,
        max_events: int = 1_000_000,
    ) -> CoSimResult:
        """Co-run instruction streams to completion.

        Args:
            apps: App id -> ``(layer, instructions)``.
            caps: Optional per-app DRAM bandwidth caps (MoCA throttles).
            max_events: Safety bound on simulation events.

        Returns:
            The :class:`CoSimResult`.
        """
        if not apps:
            raise ValueError("no apps to simulate")
        states = {
            app: _AppState(
                instructions=list(stream),
                compute_rate=compute_rate_for(layer, self.soc),
            )
            for app, (layer, stream) in apps.items()
        }
        for state in states.values():
            self._arm(state)

        now = 0.0
        events = 0
        dma_apps: Optional[tuple] = None
        shares: Mapping[str, float] = {}
        while any(s.finish_time is None for s in states.values()):
            events += 1
            if events > max_events:
                raise RuntimeError("co-simulation exceeded event budget")

            # DMA instructions share the DRAM; the split depends only
            # on which apps are transferring, so it is re-solved only
            # when that set changes.
            current = tuple(
                app for app, state in states.items()
                if (ins := state.current()) is not None
                and ins.op is not Opcode.COMPUTE
            )
            if current != dma_apps:
                dma_apps = current
                shares = (
                    allocate_bandwidth(
                        dict.fromkeys(current, self.dram_bandwidth),
                        self.dram_bandwidth, caps,
                    )
                    if current else {}
                )

            # Each running app's rate (computes run at their tile's
            # array rate) and the time to its next completion.
            rates: Dict[str, float] = {}
            dt = float("inf")
            for app, state in states.items():
                ins = state.current()
                if ins is None:
                    continue
                if ins.op is Opcode.COMPUTE:
                    rate = state.compute_rate
                else:
                    rate = shares.get(app, 0.0)
                rates[app] = rate
                if rate > 0:
                    dt = min(dt, state.remaining / rate)
            if dt == float("inf"):
                raise RuntimeError("co-simulation stalled")
            dt = max(dt, _EPS)

            # Advance everyone.
            now += dt
            for app, rate in rates.items():
                state = states[app]
                state.remaining -= rate * dt
                if state.remaining <= _EPS:
                    state.pc += 1
                    self._arm(state)
                    if state.current() is None:
                        state.finish_time = now
        finish = {app: s.finish_time for app, s in states.items()}
        return CoSimResult(finish_times=finish, makespan=max(finish.values()))

    @staticmethod
    def _arm(state: _AppState) -> None:
        ins = state.current()
        if ins is None:
            return
        state.remaining = float(
            ins.macs if ins.op is Opcode.COMPUTE else ins.num_bytes
        )
        if state.remaining <= 0:
            state.pc += 1
            MultiTenantPipelineSim._arm(state)


def co_run_layers(
    soc: SoCConfig,
    dram_bandwidth: float,
    layers: Mapping[str, Layer],
    caps: Optional[Mapping[str, float]] = None,
) -> CoSimResult:
    """Convenience wrapper: lower each layer and co-run the streams."""
    from repro.accelerator.isa import lower_layer

    apps = {
        app: (layer, lower_layer(layer, soc))
        for app, layer in layers.items()
    }
    return MultiTenantPipelineSim(soc, dram_bandwidth).run(apps, caps)
