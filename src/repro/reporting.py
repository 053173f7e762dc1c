"""Result rendering and export.

The paper's artifact parses UART logs into CSVs and bar plots
(``parse_result_from_uartlog.py`` / ``make_fair.py`` /
``build_sla.sh``).  This module is the reproduction's equivalent:
ASCII bar charts for terminal use, plus CSV and JSON export of the
experiment matrices and per-task records so downstream tooling can plot
them.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import POLICY_ORDER, ScenarioResult
from repro.metrics import MetricsSummary
from repro.sim.job import TaskResult

Matrix = Dict[str, Dict[str, ScenarioResult]]


def ascii_bar_chart(
    values: Mapping[str, float],
    title: str = "",
    width: int = 48,
    max_value: Optional[float] = None,
) -> str:
    """Render labeled values as horizontal ASCII bars.

    Args:
        values: Label -> value (non-negative).
        title: Optional heading line.
        width: Bar width in characters for the largest value.
        max_value: Scale maximum; defaults to the data maximum.

    Returns:
        The chart as a multi-line string.
    """
    if not values:
        raise ValueError("no values to chart")
    if any(v < 0 for v in values.values()):
        raise ValueError("bar values must be non-negative")
    scale = max_value if max_value is not None else max(values.values())
    if scale <= 0:
        scale = 1.0
    label_w = max(len(str(k)) for k in values)
    lines = [title] if title else []
    for label, value in values.items():
        bar = "#" * max(0, round(width * min(value, scale) / scale))
        lines.append(f"{str(label):<{label_w}s} |{bar:<{width}s}| {value:.3f}")
    return "\n".join(lines)


def per_scenario_summary(matrix: Matrix) -> str:
    """One aligned table per scenario: each policy's headline metrics.

    This is the ``repro.cli sweep`` output format — every scenario of
    the matrix (registry entries keep their registry name as the
    label) gets a block with the Section IV-C metric bundle per
    policy, averaged over the scenario's seeds.
    """
    if not matrix:
        raise ValueError("empty matrix")
    blocks = []
    for label, cell in matrix.items():
        policies = _ordered_policies(cell)
        lines = [
            f"scenario {label} "
            f"({len(next(iter(cell.values())).per_seed)} seed(s))",
            f"  {'policy':<10s}{'sla':>8s}{'stp/n':>8s}{'fairness':>10s}"
            f"{'slowdown':>10s}{'p99':>8s}",
        ]
        for policy in policies:
            result = cell[policy]
            lines.append(
                f"  {policy:<10s}{result.sla_rate:>8.3f}"
                f"{result.stp_normalized:>8.3f}{result.fairness:>10.4f}"
                f"{result.mean_slowdown:>10.2f}{result.p99_slowdown:>8.2f}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def decision_summary(cells) -> str:
    """One aligned table of decision/epoch telemetry per (scenario,
    policy) cell group.

    ``cells`` is a sequence of :class:`~repro.experiments.results.
    CellResult` (e.g. :meth:`~repro.experiments.results.SweepResults.
    cells` of a finished sweep); seeds of the same (scenario,
    policy) pair are summed.  Columns: policy consultations
    (``decisions``), plans that mutated state vs no-ops, total
    controller actions, and the allocation-epoch cache reuse ratio
    (``reuses / recomputes``).  The engine consults its policy at
    every event, so ``decisions`` counts events.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("no cells to summarise")
    groups: Dict[tuple, Dict[str, int]] = {}
    order: List[tuple] = []
    for cell in cells:
        key = (cell.label, cell.policy)
        if key not in groups:
            groups[key] = {
                "decisions": 0, "applied": 0, "noop": 0,
                "actions": 0, "reuses": 0, "recomputes": 0,
            }
            order.append(key)
        g = groups[key]
        g["decisions"] += cell.decisions
        g["applied"] += cell.plans_applied
        g["noop"] += cell.plans_noop
        g["actions"] += cell.plan_actions
        g["reuses"] += cell.block_time_reuses
        g["recomputes"] += cell.block_time_recomputes
    lines = [
        f"{'scenario':<22s}{'policy':<10s}{'decisions':>10s}"
        f"{'applied':>9s}{'noop':>9s}{'actions':>9s}{'reuse':>8s}"
    ]
    for label, policy in order:
        g = groups[(label, policy)]
        ratio = g["reuses"] / max(g["recomputes"], 1)
        lines.append(
            f"{label:<22s}{policy:<10s}{g['decisions']:>10d}"
            f"{g['applied']:>9d}{g['noop']:>9d}{g['actions']:>9d}"
            f"{ratio:>8.3f}"
        )
    return "\n".join(lines)


def _ordered_policies(cell: Dict[str, ScenarioResult]) -> List[str]:
    """Presentation order: the paper's four systems, then extras."""
    policies = [p for p in POLICY_ORDER if p in cell]
    policies += [p for p in cell if p not in POLICY_ORDER]
    return policies


#: Aggregate (seed-averaged) metrics exported per (scenario, policy).
_AGGREGATE_METRICS = (
    "sla_rate", "stp", "stp_normalized", "fairness",
    "mean_slowdown", "p99_slowdown",
)


def sweep_to_json(matrix: Matrix) -> str:
    """Export a sweep matrix as a full-fidelity JSON document.

    Per scenario: the spec (via ``ScenarioSpec.to_dict``, so the file
    is self-describing and re-runnable), per-policy seed-averaged
    aggregates, and the complete per-seed metric bundles at full float
    precision (JSON round-trips Python floats exactly).  Output is
    deterministic — scenario order follows the matrix, everything
    else is sorted — so serial and streaming runs of the same sweep
    export byte-identical files (``scripts/ci.sh`` gates on this).
    """
    if not matrix:
        raise ValueError("empty matrix")
    scenarios = []
    for label, cell in matrix.items():
        spec = next(iter(cell.values())).spec
        policies = {}
        # Plain dict order: the sort_keys=True dump below re-orders
        # object keys alphabetically anyway, so curated POLICY_ORDER
        # cannot survive into this file (the CSV's row order is the
        # presentation-ordered export).
        for policy, result in cell.items():
            policies[policy] = {
                "aggregate": {
                    name: getattr(result, name)
                    for name in _AGGREGATE_METRICS
                },
                "per_seed": [
                    {"seed": seed, **summary.to_dict()}
                    for seed, summary in zip(spec.seeds, result.per_seed)
                ],
            }
        scenarios.append(
            {
                "label": label,
                "spec": spec.to_dict(),
                "policies": policies,
            }
        )
    return json.dumps(
        {"format": "repro-sweep/1", "scenarios": scenarios},
        indent=2,
        sort_keys=True,
    ) + "\n"


def sweep_from_json(text: str) -> Matrix:
    """Rebuild a sweep matrix from :func:`sweep_to_json` output.

    Round-trips exactly: specs are reconstructed via
    ``ScenarioSpec.from_dict`` and every per-seed
    :class:`MetricsSummary` compares equal to the original.
    """
    from repro.scenarios import ScenarioSpec

    payload = json.loads(text)
    if (
        not isinstance(payload, dict)
        or payload.get("format") != "repro-sweep/1"
    ):
        raise ValueError(
            "not a repro-sweep/1 document (format="
            + repr(
                payload.get("format")
                if isinstance(payload, dict) else type(payload).__name__
            )
            + ")"
        )
    matrix: Matrix = {}
    for entry in payload["scenarios"]:
        spec = ScenarioSpec.from_dict(entry["spec"])
        cell = {}
        for policy, block in entry["policies"].items():
            cell[policy] = ScenarioResult(
                policy=policy,
                spec=spec,
                per_seed=tuple(
                    MetricsSummary.from_dict(row)
                    for row in block["per_seed"]
                ),
            )
        matrix[entry["label"]] = cell
    return matrix


#: Scalar MetricsSummary columns of the sweep CSV, in export order.
_SWEEP_SCALAR_FIELDS = tuple(
    f.name for f in dataclasses.fields(MetricsSummary)
    if f.name not in ("policy", "sla_by_group")
)


def sweep_to_csv(matrix: Matrix) -> str:
    """Export a sweep matrix as one per-seed row per cell.

    Columns: scenario, policy, seed, every scalar
    :class:`MetricsSummary` field (full ``repr`` precision, so values
    survive a text round-trip bit-exactly), ``sla_by_group`` as a
    compact sorted-JSON object, and the scenario ``spec`` as a
    compact sorted-JSON object — the CSV is self-describing, like the
    JSON export, so :func:`sweep_from_csv` rebuilds the full matrix.
    All structured columns (and any hostile scenario label containing
    commas, quotes or newlines) go through the ``csv`` module's
    quoting, so values that embed the delimiter cannot corrupt the
    row.  Row order is deterministic (matrix order, paper policy
    order, seed order) — serial and streaming runs export
    byte-identical files.
    """
    if not matrix:
        raise ValueError("empty matrix")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["scenario", "policy", "seed"]
        + list(_SWEEP_SCALAR_FIELDS)
        + ["sla_by_group", "spec"]
    )
    for label, cell in matrix.items():
        for policy in _ordered_policies(cell):
            result = cell[policy]
            spec_json = json.dumps(
                result.spec.to_dict(),
                sort_keys=True,
                separators=(",", ":"),
            )
            for seed, summary in zip(result.spec.seeds, result.per_seed):
                row = [label, policy, seed]
                for name in _SWEEP_SCALAR_FIELDS:
                    value = getattr(summary, name)
                    row.append(
                        repr(value) if isinstance(value, float) else value
                    )
                row.append(
                    json.dumps(
                        summary.sla_by_group,
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                )
                row.append(spec_json)
                writer.writerow(row)
    return out.getvalue()


def sweep_from_csv(text: str) -> Matrix:
    """Rebuild a sweep matrix from :func:`sweep_to_csv` output.

    Round-trips exactly: specs are reconstructed from the ``spec``
    column and every per-seed :class:`MetricsSummary` compares equal
    to the exporter's input, so a CSV-exported sweep carries the same
    information as the JSON export.
    """
    from repro.scenarios import ScenarioSpec

    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or "spec" not in reader.fieldnames:
        raise ValueError(
            "not a sweep CSV (missing the 'spec' column; files from "
            "older exporters are not self-describing)"
        )
    required = (
        ("scenario", "policy", "seed")
        + _SWEEP_SCALAR_FIELDS
        + ("sla_by_group",)
    )
    absent = [c for c in required if c not in reader.fieldnames]
    if absent:
        raise ValueError(
            f"not a sweep CSV (missing column(s) {absent})"
        )
    rows: Dict[str, Dict[str, List[Tuple[int, MetricsSummary]]]] = {}
    specs: Dict[str, ScenarioSpec] = {}
    for row in reader:
        kwargs = {"policy": row["policy"]}
        try:
            for name in _SWEEP_SCALAR_FIELDS:
                field_type = MetricsSummary.__dataclass_fields__[name].type
                raw = row[name]
                kwargs[name] = (
                    int(raw) if field_type in ("int", int) else float(raw)
                )
            kwargs["sla_by_group"] = json.loads(row["sla_by_group"])
        except TypeError:
            # DictReader fills short rows with None: a file cut
            # mid-row must read as truncation, not a cryptic
            # float(None) TypeError.
            raise ValueError(
                f"sweep CSV row for scenario {row['scenario']!r} is "
                f"incomplete (truncated file?)"
            ) from None
        label = row["scenario"]
        spec = ScenarioSpec.from_dict(json.loads(row["spec"]))
        if spec.label != label:
            raise ValueError(
                f"scenario column {label!r} does not match the "
                f"embedded spec's label {spec.label!r} (hand-edited "
                f"file?)"
            )
        if label in specs:
            if specs[label] != spec:
                raise ValueError(
                    f"scenario {label!r} carries two different specs "
                    f"(corrupt or hand-edited file?)"
                )
        else:
            specs[label] = spec
        rows.setdefault(label, {}).setdefault(row["policy"], []).append(
            (int(row["seed"]), MetricsSummary(**kwargs))
        )
    matrix: Matrix = {}
    for label, by_policy in rows.items():
        spec = specs[label]
        cell = {}
        for policy, seeded in by_policy.items():
            if tuple(seed for seed, _ in seeded) != spec.seeds:
                raise ValueError(
                    f"scenario {label!r} policy {policy!r}: seed rows "
                    f"{[s for s, _ in seeded]} do not match the "
                    f"spec's seeds {list(spec.seeds)} (truncated or "
                    f"reordered file?)"
                )
            cell[policy] = ScenarioResult(
                policy=policy,
                spec=spec,
                per_seed=tuple(summary for _, summary in seeded),
            )
        matrix[label] = cell
    return matrix


_TASK_FIELDS = (
    "task_id", "network_name", "priority", "dispatch_cycle", "started_at",
    "finished_at", "qos_target_cycles", "isolated_cycles", "preemptions",
    "tile_repartitions", "bw_reconfigs", "stall_cycles",
)


def results_to_csv(results: Sequence[TaskResult]) -> str:
    """Export per-task records (plus derived columns) as CSV text."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        list(_TASK_FIELDS) + ["latency", "runtime", "met_sla", "slowdown"]
    )
    for r in results:
        writer.writerow(
            [getattr(r, f) for f in _TASK_FIELDS]
            + [r.latency, r.runtime, int(r.met_sla), f"{r.slowdown:.6f}"]
        )
    return out.getvalue()


def timeline_chart(
    trace,
    width: int = 72,
    max_jobs: int = 24,
) -> str:
    """Render a simulation trace as an ASCII Gantt chart.

    Each job gets one row spanning dispatch to finish: ``.`` while
    waiting in the task queue, ``=`` while running, ``F`` at the finish
    mark.  Useful for eyeballing queueing vs runtime in examples and
    bug reports.

    Args:
        trace: A :class:`repro.sim.trace.Trace` with DISPATCH / START /
            FINISH records.
        width: Chart width in characters.
        max_jobs: Rows to render (earliest-dispatched first).
    """
    from repro.sim.trace import TraceEvent

    spans = {}
    for record in trace.records:
        entry = spans.setdefault(
            record.job_id, {"dispatch": None, "start": None, "finish": None}
        )
        if record.event is TraceEvent.DISPATCH:
            entry["dispatch"] = record.cycle
        elif record.event is TraceEvent.START and entry["start"] is None:
            entry["start"] = record.cycle
        elif record.event is TraceEvent.FINISH:
            entry["finish"] = record.cycle
    spans = {
        job: s for job, s in spans.items()
        if s["dispatch"] is not None and s["finish"] is not None
    }
    if not spans:
        raise ValueError("trace holds no complete job lifecycles")
    horizon = max(s["finish"] for s in spans.values())
    if horizon <= 0:
        raise ValueError("empty timeline")
    ordered = sorted(spans.items(), key=lambda kv: kv[1]["dispatch"])
    label_w = max(len(j) for j, _ in ordered[:max_jobs])

    def col(cycle):
        return min(width - 1, int(width * cycle / horizon))

    lines = [f"{'job':<{label_w}s} |{'-' * width}| 0 .. {horizon:,.0f} cyc"]
    for job, s in ordered[:max_jobs]:
        row = [" "] * width
        start = s["start"] if s["start"] is not None else s["finish"]
        for c in range(col(s["dispatch"]), col(start)):
            row[c] = "."
        for c in range(col(start), col(s["finish"])):
            row[c] = "="
        row[col(s["finish"])] = "F"
        lines.append(f"{job:<{label_w}s} |{''.join(row)}|")
    if len(ordered) > max_jobs:
        lines.append(f"... {len(ordered) - max_jobs} more jobs not shown")
    return "\n".join(lines)


def results_from_csv(text: str) -> Sequence[TaskResult]:
    """Rebuild per-task records from :func:`results_to_csv` output."""
    reader = csv.DictReader(io.StringIO(text))
    results = []
    for row in reader:
        results.append(
            TaskResult(
                task_id=row["task_id"],
                network_name=row["network_name"],
                priority=int(row["priority"]),
                dispatch_cycle=float(row["dispatch_cycle"]),
                started_at=float(row["started_at"]),
                finished_at=float(row["finished_at"]),
                qos_target_cycles=float(row["qos_target_cycles"]),
                isolated_cycles=float(row["isolated_cycles"]),
                preemptions=int(row["preemptions"]),
                tile_repartitions=int(row["tile_repartitions"]),
                bw_reconfigs=int(row["bw_reconfigs"]),
                stall_cycles=float(row["stall_cycles"]),
            )
        )
    return results
