"""Figure 6: SLA satisfaction broken down by priority group.

Same runs as Figure 5, reported per priority group (p-Low 0-2,
p-Mid 3-8, p-High 9-11) for each workload set and QoS level.  The
shapes to hold: satisfaction generally rises with priority for every
system; MoCA p-High leads all baselines (paper: up to 4.7x over
Planaria on Workload-A QoS-H, 1.8x over static on Workload-C QoS-H,
9.9x over Prema on Workload-A QoS-M).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.fig5_sla import Matrix
from repro.experiments.runner import POLICY_ORDER

GROUPS: Tuple[str, ...] = ("p-Low", "p-Mid", "p-High")


def group_rates(matrix: Matrix) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{scenario: {policy: {group: rate}}}`` for all cells."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for label, cell in matrix.items():
        out[label] = {}
        for policy, result in cell.items():
            rates = {}
            for group in GROUPS:
                try:
                    rates[group] = result.sla_group(group)
                except KeyError:
                    continue
            out[label][policy] = rates
    return out


def format_fig6(matrix: Matrix) -> str:
    """Render the per-priority-group breakdown as aligned text."""
    rates = group_rates(matrix)
    lines: List[str] = [
        "Figure 6: SLA satisfaction rate by priority group"
    ]
    header = f"{'scenario':<22s}{'policy':>10s}" + "".join(
        f"{g:>9s}" for g in GROUPS
    )
    lines.append(header)
    for label in rates:
        for policy in POLICY_ORDER:
            if policy not in rates[label]:
                continue
            row = f"{label:<22s}{policy:>10s}"
            for group in GROUPS:
                value = rates[label][policy].get(group)
                row += f"{value:>9.3f}" if value is not None else f"{'-':>9s}"
            lines.append(row)
    return "\n".join(lines)
