"""Scenario serialization: save and reload generated task streams.

The artifact appendix lets users change ``SEED`` / ``total_workloads``
and rerun; this module makes scenarios durable artifacts instead —
a task stream can be written to JSON, shipped, and reloaded bit-exact,
so two systems are guaranteed to face the *same* queries (the paper's
"for fair comparison ... on the same hardware configuration" applied to
workloads).
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.config import SoCConfig
from repro.core.latency import build_network_cost
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model
from repro.sim.job import Task
from repro.sim.qos import QosModel

FORMAT_VERSION = 1


def dump_tasks(tasks: Sequence[Task]) -> str:
    """Serialize a task stream to JSON text.

    Only workload-defining fields are stored; per-block costs are
    re-derived from the model zoo at load time (they are functions of
    the SoC configuration, not part of the scenario).
    """
    payload = {
        "version": FORMAT_VERSION,
        "tasks": [
            {
                "task_id": t.task_id,
                "network": t.network_name,
                "dispatch_cycle": t.dispatch_cycle,
                "priority": t.priority,
                "qos_target_cycles": t.qos_target_cycles,
            }
            for t in tasks
        ],
    }
    return json.dumps(payload, indent=2)


def _parse_payload(text: str) -> dict:
    """Parse and version-check scenario JSON.

    Raises:
        ValueError: On version mismatch or malformed payloads.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a scenario file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("not a scenario file: expected a JSON object")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported scenario version {payload.get('version')!r}"
        )
    if not isinstance(payload.get("tasks"), list):
        raise ValueError("not a scenario file: missing 'tasks' list")
    return payload


@lru_cache(maxsize=8)
def load_dispatch_cycles(text: str) -> Tuple[float, ...]:
    """Dispatch cycles of a saved scenario, sorted ascending.

    The workload generator's ``"trace"`` arrival process replays these
    (:class:`repro.sim.workload.WorkloadConfig` ``trace_text``) —
    only the arrival pattern is reused; models, priorities and QoS
    targets come from the consuming scenario.  Cached per trace text:
    spec validation and every (policy, seed) cell re-read the same
    immutable string.
    """
    payload = _parse_payload(text)
    try:
        return tuple(sorted(
            float(entry["dispatch_cycle"]) for entry in payload["tasks"]
        ))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"not a scenario file: bad task entry ({exc})"
        ) from exc


def load_tasks(
    text: str,
    soc: SoCConfig,
    mem: Optional[MemoryHierarchy] = None,
) -> List[Task]:
    """Rebuild a task stream from :func:`dump_tasks` output.

    Args:
        text: JSON produced by :func:`dump_tasks`.
        soc: SoC configuration to derive block costs and isolated
            latencies against.
        mem: Memory hierarchy; built from ``soc`` when omitted.

    Raises:
        ValueError: On version mismatch or malformed payloads.
    """
    if mem is None:
        mem = MemoryHierarchy.from_soc(soc)
    qos = QosModel(soc)
    payload = _parse_payload(text)
    tasks: List[Task] = []
    for entry in payload["tasks"]:
        network = build_model(entry["network"])
        cost = build_network_cost(network, soc, mem)
        isolated = qos.isolated_latency_from_cost(cost, mem)
        tasks.append(
            Task(
                task_id=entry["task_id"],
                network_name=entry["network"],
                cost=cost,
                dispatch_cycle=float(entry["dispatch_cycle"]),
                priority=int(entry["priority"]),
                qos_target_cycles=float(entry["qos_target_cycles"]),
                isolated_cycles=isolated,
            )
        )
    tasks.sort(key=lambda t: (t.dispatch_cycle, t.task_id))
    return tasks
