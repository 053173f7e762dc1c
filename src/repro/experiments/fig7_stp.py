"""Figure 7: system throughput (STP) normalized to Planaria.

Same nine scenarios as Figure 5; the metric is Equation 2's STP, and
each bar is a system's STP divided by Planaria's in that scenario.
Shapes to hold: MoCA > 1 everywhere (paper: 1.7x geomean over
Planaria, 2.3x max; 1.7x over static; 12.5x over Prema), with the
biggest MoCA gains on Workload-A (migration overhead on light models)
and Workload-C (memory-aware layer grouping).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.fig5_sla import Matrix
from repro.experiments.runner import POLICY_ORDER, geomean_improvement


def stp_normalized_to_planaria(matrix: Matrix) -> Dict[str, Dict[str, float]]:
    """``{scenario: {policy: STP / Planaria's STP}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for label, cell in matrix.items():
        base = cell["planaria"].stp
        out[label] = {
            policy: (result.stp / base if base > 0 else float("nan"))
            for policy, result in cell.items()
        }
    return out


def format_fig7(matrix: Matrix) -> str:
    """Render Figure 7 plus summary ratios."""
    norm = stp_normalized_to_planaria(matrix)
    lines = [
        "Figure 7: STP normalized to Planaria",
        f"{'scenario':<22s}" + "".join(f"{p:>10s}" for p in POLICY_ORDER),
    ]
    for label, row in norm.items():
        line = f"{label:<22s}"
        for policy in POLICY_ORDER:
            line += f"{row.get(policy, float('nan')):>10.3f}"
        lines.append(line)
    lines.append("")
    lines.append("MoCA STP improvement (geomean):")
    for baseline in ("prema", "static", "planaria"):
        geo = geomean_improvement(matrix, "stp", baseline)
        lines.append(
            f"  vs {baseline:<9s} x{geo:.2f} "
            f"(paper: {_PAPER_STP[baseline]})"
        )
    return "\n".join(lines)


_PAPER_STP = {
    "prema": "12.5x geomean, 20.5x max",
    "static": "1.7x geomean, 2.1x max",
    "planaria": "1.7x geomean, 2.3x max",
}
