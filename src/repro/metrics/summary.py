"""Scenario-level metric bundle used by every experiment."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.metrics.fairness import fairness
from repro.metrics.sla import sla_by_priority_group, sla_satisfaction_rate
from repro.metrics.throughput import normalized_progress_mean, system_throughput
from repro.sim.job import TaskResult


# Slotted: every sweep cell carries one bundle for the sweep's lifetime.
@dataclass(frozen=True, slots=True)
class MetricsSummary:
    """All Section IV-C metrics for one simulated scenario.

    Attributes:
        policy: Policy name.
        num_tasks: Tasks evaluated.
        sla_rate: Overall SLA satisfaction rate.
        sla_by_group: SLA satisfaction per priority group.
        stp: Raw Equation 2 system throughput.
        stp_normalized: STP divided by task count (mean normalized
            progress), comparable across scenario sizes.
        fairness: Equation 1 fairness.
        mean_slowdown: Mean multi-tenant slowdown vs isolated.
        p99_slowdown: 99th-percentile slowdown.
    """

    policy: str
    num_tasks: int
    sla_rate: float
    sla_by_group: Dict[str, float]
    stp: float
    stp_normalized: float
    fairness: float
    mean_slowdown: float
    p99_slowdown: float

    def to_dict(self) -> dict:
        """The bundle as JSON-ready primitives.

        Iterates ``dataclasses.fields`` so metrics added later are
        exported automatically instead of silently escaping the sweep
        export files and shard partial artifacts that serialise
        through here.  Floats pass through untouched — JSON round-trips
        Python floats exactly, so :meth:`from_dict` rebuilds a bundle
        that compares equal bit-for-bit.
        """
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            out[field.name] = (
                dict(value) if isinstance(value, dict) else value
            )
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsSummary":
        """Rebuild a bundle from :meth:`to_dict` output (exact).

        Value types are validated so a corrupt document (a metric
        stored as a string, a priority table where a dict belongs)
        refuses here with a ValueError instead of crashing later in
        whatever arithmetic first touches the bad field.
        """
        kwargs = {}
        for field in dataclasses.fields(cls):
            value = payload[field.name]
            if field.type in ("int", int):
                ok = isinstance(value, int) and not isinstance(value, bool)
            elif field.type in ("float", float):
                ok = (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                )
            elif field.type in ("str", str):
                ok = isinstance(value, str)
            else:  # sla_by_group
                ok = isinstance(value, dict)
            if not ok:
                raise ValueError(
                    f"metric field {field.name!r} has wrong type "
                    f"{type(value).__name__} (corrupt document?)"
                )
            kwargs[field.name] = (
                dict(value) if isinstance(value, dict) else value
            )
        return cls(**kwargs)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("no values")
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def summarize(policy: str, results: Sequence[TaskResult]) -> MetricsSummary:
    """Compute the full metric bundle for one run."""
    slowdowns = sorted(r.slowdown for r in results)
    return MetricsSummary(
        policy=policy,
        num_tasks=len(results),
        sla_rate=sla_satisfaction_rate(results),
        sla_by_group=sla_by_priority_group(results),
        stp=system_throughput(results),
        stp_normalized=normalized_progress_mean(results),
        fairness=fairness(results),
        mean_slowdown=sum(slowdowns) / len(slowdowns),
        p99_slowdown=_percentile(slowdowns, 0.99),
    )
