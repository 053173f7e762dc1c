"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes one evaluation scenario — which
models, how many queries, the arrival process, priority distribution
and QoS tightness — as a frozen dataclass of primitives, so specs are
hashable, picklable (the parallel executor ships them to worker
processes verbatim) and trivially serialisable.

The spec is purely declarative: :func:`repro.experiments.runner.run_cell`
turns it into a :class:`~repro.sim.workload.WorkloadConfig` per seed
and runs the simulation.  Named specs live in the scenario registry
(:mod:`repro.scenarios.registry`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.models.graph import Network
from repro.sim.qos import QosLevel
from repro.sim.workload import WorkloadConfig, normalize_model_mix


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation scenario (a cell of the evaluation matrix).

    Attributes:
        workload_set: Table III set name ('A', 'B' or 'C') supplying
            the candidate model pool (ignored when ``model_mix`` names
            an explicit pool).
        qos_level: SLA tightness.
        num_tasks: Queries per run (paper: 200-500).
        seeds: RNG seeds to aggregate over.
        load_factor: Offered load relative to slot capacity.
        slack_factor: QoS baseline slack (see :class:`QosModel`).
        name: Registry name; set by
            :func:`repro.scenarios.register_scenario` and used as the
            matrix label when present.
        arrival: Arrival process (see
            :data:`repro.sim.workload.ARRIVAL_PROCESSES`).
        arrival_window: Explicit dispatch window in cycles (``None``
            sizes it from ``load_factor``).
        burst_count / burst_spread: ``"bursty"`` process knobs.
        diurnal_waves / diurnal_depth: ``"diurnal"`` process knobs.
        trace_text: Scenario JSON replayed by the ``"trace"`` process.
        model_mix: Weighted ``((model, weight), ...)`` pool override.
        priority_weights: 12-entry priority table override.
        decision_cadence: When the engine consults its policy; only
            ``"every-event"``, the engine's one schedule, is legal.
    """

    workload_set: str = "C"
    qos_level: QosLevel = QosLevel.MEDIUM
    num_tasks: int = 250
    seeds: Tuple[int, ...] = (1, 2, 3)
    load_factor: float = 0.7
    slack_factor: float = 2.0
    name: Optional[str] = None
    arrival: str = "uniform"
    arrival_window: Optional[float] = None
    burst_count: int = 8
    burst_spread: float = 0.04
    diurnal_waves: float = 2.0
    diurnal_depth: float = 0.8
    trace_text: Optional[str] = None
    model_mix: Optional[Tuple[Tuple[str, float], ...]] = None
    priority_weights: Optional[Tuple[float, ...]] = None
    decision_cadence: str = "every-event"

    def __post_init__(self) -> None:
        if self.decision_cadence != "every-event":
            raise ValueError(
                f"decision_cadence {self.decision_cadence!r} is not "
                f"supported: only 'every-event' is"
            )
        if not self.seeds:
            raise ValueError("need at least one seed")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(
            self, "model_mix", normalize_model_mix(self.model_mix)
        )
        if self.priority_weights is not None:
            object.__setattr__(
                self, "priority_weights",
                tuple(float(w) for w in self.priority_weights),
            )
        # Fail fast on bad workload knobs: building the per-seed config
        # runs WorkloadConfig's full validation.
        self.workload_config(self.seeds[0])
        if self.model_mix is not None:
            from repro.models.zoo import MODEL_BUILDERS

            unknown = [
                name for name, _ in self.model_mix
                if name not in MODEL_BUILDERS
            ]
            if unknown:
                raise ValueError(
                    f"model_mix names {unknown} not in the model zoo "
                    f"{sorted(MODEL_BUILDERS)}"
                )
        if self.trace_text is not None:
            from repro.sim.tracefile import load_dispatch_cycles

            if not load_dispatch_cycles(self.trace_text):
                raise ValueError(
                    "trace_text holds no dispatch cycles to replay"
                )

    @property
    def label(self) -> str:
        """Matrix label: the registry name when registered, else the
        classic ``Workload-<set>/<QoS>`` cell label."""
        if self.name:
            return self.name
        return f"Workload-{self.workload_set}/{self.qos_level.value}"

    def workload_config(self, seed: int) -> WorkloadConfig:
        """The generator configuration of this scenario for one seed.

        Forwards every field the two dataclasses share by name, so a
        knob added to both can never be silently dropped here.
        """
        shared = {f.name for f in dataclasses.fields(WorkloadConfig)} & {
            f.name for f in dataclasses.fields(ScenarioSpec)
        }
        return WorkloadConfig(
            seed=seed,
            **{
                name: getattr(self, name) for name in sorted(shared)
            },
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form of the spec (see :meth:`from_dict`).

        Every field is a primitive, a list of primitives, or the QoS
        level's string value — the serialisation seam the sweep-export
        files and the cell manifest use.  ``decision_cadence`` has one
        legal value and is omitted, so the sweep-export goldens pin
        the same bytes as before the field existed.
        """
        out = {}
        for f in dataclasses.fields(self):
            if f.name == "decision_cadence":
                continue
            value = getattr(self, f.name)
            if isinstance(value, QosLevel):
                value = value.value
            elif isinstance(value, tuple):
                value = [
                    list(item) if isinstance(item, tuple) else item
                    for item in value
                ]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Round-trips exactly: ``ScenarioSpec.from_dict(s.to_dict()) ==
        s`` (list/tuple coercion is handled here and by the
        constructor's own normalisation).
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {unknown}")
        kwargs = dict(payload)
        if "qos_level" in kwargs:
            kwargs["qos_level"] = QosLevel(kwargs["qos_level"])
        for name in ("seeds", "priority_weights"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(kwargs[name])
        if kwargs.get("model_mix") is not None:
            kwargs["model_mix"] = tuple(
                (name, weight) for name, weight in kwargs["model_mix"]
            )
        return cls(**kwargs)

    def networks(self) -> List[Network]:
        """The scenario's candidate model pool.

        An explicit ``model_mix`` defines the pool (any zoo model);
        otherwise the Table III ``workload_set`` does.
        """
        from repro.models.zoo import build_model, workload_set

        if self.model_mix is not None:
            return [build_model(name) for name, _ in self.model_mix]
        return workload_set(self.workload_set)
