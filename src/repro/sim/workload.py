"""Multi-tenant workload generation (Section IV-B).

The paper generates scenarios by randomly dispatching N inference
tasks (N between 200 and 500) to the system, assigning each a static
priority between 0 and 11 following the distribution observed in
Google datacenter traces [11], [37] (the same methodology as Prema and
Planaria).

The trace studies report a heavily skewed distribution: the bulk of
tasks arrive at low/free priorities, a broad middle band carries
production work, and a thin tail is latency-critical.  The exact table
is not published, so :data:`PRIORITY_WEIGHTS` encodes that shape and is
documented as a reproduction choice (DESIGN.md §6).

Arrival times are sampled uniformly over a window sized so the offered
load (total two-tile work divided by the SoC's slot capacity) matches a
configurable load factor — the random-overlap regime of the paper's
"randomly dispatched at different times".

Beyond the paper's uniform dispatch, the generator supports three more
arrival processes (all deterministic per seed):

- ``"bursty"`` — Poisson-burst arrivals: tasks cluster around
  ``burst_count`` evenly spaced burst centres with exponentially
  distributed offsets (flash-crowd / retry-storm shapes).
- ``"diurnal"`` — a sinusoidal rate over the window
  (``1 + diurnal_depth * sin``), sampled by rejection — the classic
  day/night traffic wave, ``diurnal_waves`` periods per window.
- ``"trace"`` — replay dispatch cycles from a scenario file produced
  by :mod:`repro.sim.tracefile` (cycling with a constant lap offset
  when ``num_tasks`` exceeds the trace length).

A scenario can also override the model mix (weighted sampling over the
generator's networks instead of uniform choice) and the priority
distribution (a custom 12-entry weight table).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import SoCConfig
from repro.core.latency import NetworkCost, build_network_cost
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.graph import Network
from repro.sim.job import Task
from repro.sim.qos import QosLevel, QosModel

#: Relative frequency of each static priority level 0..11 (Google-trace
#: shaped: mass at the bottom, thin latency-critical tail).
PRIORITY_WEIGHTS: Sequence[float] = (
    20.0, 14.0, 11.0,          # p-Low  (0-2)
    9.0, 8.0, 7.0, 6.0, 5.0, 4.0,  # p-Mid  (3-8)
    2.5, 1.5, 1.0,             # p-High (9-11)
)

#: The static priority levels the weight tables index.
_PRIORITIES = range(12)

#: Priority-group boundaries used by Figure 6 (p-Low 0-2, p-Mid 3-8,
#: p-High 9-11).
PRIORITY_GROUPS: Dict[str, range] = {
    "p-Low": range(0, 3),
    "p-Mid": range(3, 9),
    "p-High": range(9, 12),
}

#: Supported arrival processes of :class:`WorkloadConfig`.
ARRIVAL_PROCESSES: Tuple[str, ...] = (
    "uniform", "bursty", "diurnal", "trace"
)


def priority_group(priority: int) -> str:
    """Map a 0-11 priority to its Figure 6 group label."""
    for label, rng in PRIORITY_GROUPS.items():
        if priority in rng:
            return label
    raise ValueError(f"priority {priority} outside 0..11")


def normalize_model_mix(
    mix,
) -> Optional[Tuple[Tuple[str, float], ...]]:
    """Coerce a model mix (mapping or pair sequence) to the canonical
    hashable tuple-of-pairs form, preserving order."""
    if mix is None:
        return None
    if isinstance(mix, Mapping):
        items = mix.items()
    else:
        items = mix
    return tuple((str(name), float(weight)) for name, weight in items)


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the multi-tenant scenario generator.

    Attributes:
        num_tasks: Queries to dispatch (paper: 200-500).
        qos_level: SLA tightness for every task in the scenario.
        load_factor: Offered load relative to SoC slot capacity;
            1.0 keeps the machine just saturated on average.
        reference_tiles: Tile count used to size the arrival window
            (the static slot size).
        seed: RNG seed; scenarios are fully reproducible.
        arrival: Arrival process — one of
            :data:`ARRIVAL_PROCESSES` (default ``"uniform"``, the
            paper's regime).
        arrival_window: Explicit dispatch-window length in cycles;
            ``None`` (default) sizes the window from ``load_factor``.
        burst_count: Burst centres for the ``"bursty"`` process.
        burst_spread: Exponential offset scale around a burst centre,
            as a fraction of the window.
        diurnal_waves: Sine periods per window for ``"diurnal"``.
        diurnal_depth: Rate modulation depth in [0, 1] for
            ``"diurnal"`` (0 degenerates to uniform).
        trace_text: Scenario JSON (see :mod:`repro.sim.tracefile`)
            whose dispatch cycles the ``"trace"`` process replays.
        model_mix: Optional ``((model_name, weight), ...)`` weighted
            mix; weights must be positive and sum to ~1.0.  ``None``
            keeps the uniform choice over the generator's networks.
        priority_weights: Optional 12-entry override of
            :data:`PRIORITY_WEIGHTS`.
    """

    num_tasks: int = 250
    qos_level: QosLevel = QosLevel.MEDIUM
    load_factor: float = 0.85
    reference_tiles: int = 2
    seed: int = 0
    arrival: str = "uniform"
    arrival_window: Optional[float] = None
    burst_count: int = 8
    burst_spread: float = 0.04
    diurnal_waves: float = 2.0
    diurnal_depth: float = 0.8
    trace_text: Optional[str] = None
    model_mix: Optional[Tuple[Tuple[str, float], ...]] = None
    priority_weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        if self.load_factor <= 0:
            raise ValueError("load_factor must be positive")
        if self.reference_tiles <= 0:
            raise ValueError("reference_tiles must be positive")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"use one of {', '.join(ARRIVAL_PROCESSES)}"
            )
        if self.arrival_window is not None and self.arrival_window <= 0:
            raise ValueError(
                f"arrival_window must be positive "
                f"(got {self.arrival_window})"
            )
        if self.burst_count < 1:
            raise ValueError("burst_count must be >= 1")
        if self.burst_spread <= 0:
            raise ValueError("burst_spread must be positive")
        if self.diurnal_waves <= 0:
            raise ValueError("diurnal_waves must be positive")
        if not 0.0 <= self.diurnal_depth <= 1.0:
            raise ValueError("diurnal_depth must be within [0, 1]")
        if self.arrival == "trace" and not self.trace_text:
            raise ValueError(
                "arrival='trace' needs trace_text (a scenario JSON "
                "from repro.sim.tracefile.dump_tasks)"
            )
        object.__setattr__(
            self, "model_mix", normalize_model_mix(self.model_mix)
        )
        if self.model_mix is not None:
            if not self.model_mix:
                raise ValueError("model_mix must not be empty")
            names = [name for name, _ in self.model_mix]
            if len(set(names)) != len(names):
                raise ValueError(
                    f"model_mix repeats a model: {names}"
                )
            weights = [w for _, w in self.model_mix]
            if any(w <= 0 for w in weights):
                raise ValueError("model_mix weights must be positive")
            total = sum(weights)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(
                    f"model_mix weights must sum to 1.0 "
                    f"(got {total:.6f})"
                )
        if self.priority_weights is not None:
            object.__setattr__(
                self, "priority_weights",
                tuple(float(w) for w in self.priority_weights),
            )
            if len(self.priority_weights) != 12:
                raise ValueError(
                    f"priority_weights needs 12 entries "
                    f"(got {len(self.priority_weights)})"
                )
            if any(w < 0 for w in self.priority_weights):
                raise ValueError("priority_weights must be non-negative")
            if sum(self.priority_weights) <= 0:
                raise ValueError("priority_weights must not all be zero")


class WorkloadGenerator:
    """Builds reproducible multi-tenant task streams.

    Attributes:
        soc: SoC configuration.
        networks: Candidate models (a Table III workload set).
        qos: The QoS target model.
    """

    def __init__(
        self,
        soc: SoCConfig,
        networks: Sequence[Network],
        mem: Optional[MemoryHierarchy] = None,
        qos: Optional[QosModel] = None,
    ) -> None:
        if not networks:
            raise ValueError("need at least one network")
        self.soc = soc
        self.mem = mem if mem is not None else MemoryHierarchy.from_soc(soc)
        self.networks = list(networks)
        self.qos = qos if qos is not None else QosModel(soc)

    def sample_priority(
        self,
        rng: random.Random,
        weights: Optional[Sequence[float]] = None,
    ) -> int:
        """Draw a static priority from the Google-trace-shaped table
        (or a caller-supplied 12-entry weight override)."""
        table = PRIORITY_WEIGHTS if weights is None else weights
        return rng.choices(_PRIORITIES, weights=table, k=1)[0]

    def arrival_window(self, config: WorkloadConfig) -> float:
        """Length of the dispatch window in cycles for a scenario.

        Sized so that ``num_tasks`` average-sized jobs on
        ``reference_tiles``-tile slots offer ``load_factor`` of the
        SoC's slot-parallel capacity.  An explicit
        ``config.arrival_window`` short-circuits the sizing.
        """
        if config.arrival_window is not None:
            return config.arrival_window
        slot_runtimes = [
            self.qos.isolated_latency(
                net, self.mem, num_tiles=config.reference_tiles
            )
            for net in self.networks
        ]
        mean_runtime = sum(slot_runtimes) / len(slot_runtimes)
        slots = max(1, self.soc.num_tiles // config.reference_tiles)
        total_work = config.num_tasks * mean_runtime
        return total_work / (slots * config.load_factor)

    # -- sampling helpers ------------------------------------------------

    def _model_pool(
        self, config: WorkloadConfig
    ) -> Tuple[List[Network], Optional[List[float]]]:
        """The networks to draw from and their weights (``None`` keeps
        the uniform ``rng.choice`` of the default path)."""
        if config.model_mix is None:
            return self.networks, None
        by_name = {net.name: net for net in self.networks}
        unknown = [n for n, _ in config.model_mix if n not in by_name]
        if unknown:
            raise ValueError(
                f"model_mix names {unknown} not among this generator's "
                f"networks {sorted(by_name)}"
            )
        pool = [by_name[name] for name, _ in config.model_mix]
        weights = [weight for _, weight in config.model_mix]
        return pool, weights

    def _sample_dispatch(
        self,
        rng: random.Random,
        config: WorkloadConfig,
        window: float,
        trace_cycles: Optional[Sequence[float]],
        index: int,
    ) -> float:
        """Draw one dispatch time under the configured arrival process.

        The uniform branch makes exactly the RNG call the original
        generator made, keeping default scenarios bit-identical.
        """
        if config.arrival == "uniform":
            return rng.uniform(0.0, window)
        if config.arrival == "bursty":
            burst = rng.randrange(config.burst_count)
            center = (burst + 0.5) * window / config.burst_count
            offset = rng.expovariate(1.0 / (config.burst_spread * window))
            if rng.random() < 0.5:
                offset = -offset
            return min(max(center + offset, 0.0), window)
        if config.arrival == "diurnal":
            peak = 1.0 + config.diurnal_depth
            while True:
                t = rng.uniform(0.0, window)
                accept = rng.uniform(0.0, peak)
                rate = 1.0 + config.diurnal_depth * math.sin(
                    2.0 * math.pi * config.diurnal_waves * t / window
                )
                if accept <= rate:
                    return t
        # Trace replay: deterministic, no RNG.  Laps past the end of
        # the trace shift by the trace's span (not its absolute end —
        # a trace starting far from cycle 0 must not insert its start
        # offset as idle time) plus one mean inter-arrival gap.
        assert trace_cycles is not None
        lap, pos = divmod(index, len(trace_cycles))
        extent = trace_cycles[-1] - trace_cycles[0]
        if len(trace_cycles) > 1:
            gap = extent / (len(trace_cycles) - 1)
        else:
            gap = 0.0
        span = extent + max(gap, 1.0)
        return trace_cycles[pos] + lap * span

    def generate(self, config: WorkloadConfig) -> List[Task]:
        """Generate the scenario's task list, sorted by dispatch time."""
        rng = random.Random(config.seed)
        pool, mix_weights = self._model_pool(config)
        trace_cycles: Optional[Sequence[float]] = None
        if config.arrival == "trace":
            # Dispatch times come from the trace; skip the load-based
            # window sizing (per-network isolated-latency solves) the
            # trace path never consults.
            from repro.sim.tracefile import load_dispatch_cycles

            window = 0.0
            trace_cycles = load_dispatch_cycles(config.trace_text or "")
            if not trace_cycles:
                raise ValueError(
                    "trace replay needs at least one dispatch cycle"
                )
        else:
            window = self.arrival_window(config)
            if window <= 0:
                raise ValueError("arrival window must be positive")
        # ``choices(weights=w)`` accumulates ``w`` into the same floats
        # on every call; accumulating once and passing ``cum_weights``
        # draws identically.
        mix_cum = (
            None if mix_weights is None else list(accumulate(mix_weights))
        )
        prio_table = (
            PRIORITY_WEIGHTS if config.priority_weights is None
            else config.priority_weights
        )
        prio_cum = list(accumulate(prio_table))
        # Cost, isolated latency and QoS target depend only on the
        # network (the level is fixed per call): computed on first
        # sight with the same calls and arguments, then reused.  Keyed
        # by identity: ``pool`` holds every network for the whole call.
        per_network: Dict[int, Tuple[NetworkCost, float, float]] = {}
        tasks: List[Task] = []
        for i in range(config.num_tasks):
            if mix_cum is None:
                network = rng.choice(pool)
            else:
                network = rng.choices(pool, cum_weights=mix_cum, k=1)[0]
            dispatch = self._sample_dispatch(
                rng, config, window, trace_cycles, i
            )
            priority = rng.choices(_PRIORITIES, cum_weights=prio_cum, k=1)[0]
            known = per_network.get(id(network))
            if known is None:
                cost = build_network_cost(network, self.soc, self.mem)
                known = (
                    cost,
                    self.qos.isolated_latency_from_cost(cost, self.mem),
                    self.qos.target(network, config.qos_level, self.mem),
                )
                per_network[id(network)] = known
            cost, isolated, target = known
            tasks.append(
                Task(
                    task_id=f"t{i:04d}",
                    network_name=network.name,
                    cost=cost,
                    dispatch_cycle=dispatch,
                    priority=priority,
                    qos_target_cycles=target,
                    isolated_cycles=isolated,
                )
            )
        tasks.sort(key=lambda t: (t.dispatch_cycle, t.task_id))
        return tasks
