"""Figure 8: fairness normalized to Planaria.

Same nine scenarios; the metric is Equation 1's priority-weighted
proportional-progress fairness, each bar normalized to Planaria.
Shapes to hold: MoCA improves fairness over every baseline (paper:
1.8x geomean over Prema, 1.07x over static, 1.2x over Planaria), with
the largest benefit on Workload-B where memory-intensive layers starve
co-runners without regulation.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.fig5_sla import Matrix
from repro.experiments.runner import POLICY_ORDER, geomean_improvement


def fairness_normalized_to_planaria(
    matrix: Matrix,
) -> Dict[str, Dict[str, float]]:
    """``{scenario: {policy: fairness / Planaria's fairness}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for label, cell in matrix.items():
        base = cell["planaria"].fairness
        out[label] = {
            policy: (result.fairness / base if base > 0 else float("nan"))
            for policy, result in cell.items()
        }
    return out


def format_fig8(matrix: Matrix) -> str:
    """Render Figure 8 plus summary ratios."""
    norm = fairness_normalized_to_planaria(matrix)
    lines = [
        "Figure 8: fairness normalized to Planaria",
        f"{'scenario':<22s}" + "".join(f"{p:>10s}" for p in POLICY_ORDER),
    ]
    for label, row in norm.items():
        line = f"{label:<22s}"
        for policy in POLICY_ORDER:
            line += f"{row.get(policy, float('nan')):>10.3f}"
        lines.append(line)
    lines.append("")
    lines.append("MoCA fairness improvement (geomean):")
    for baseline in ("prema", "static", "planaria"):
        geo = geomean_improvement(matrix, "fairness", baseline)
        lines.append(
            f"  vs {baseline:<9s} x{geo:.2f} "
            f"(paper: {_PAPER_FAIRNESS[baseline]})"
        )
    return "\n".join(lines)


_PAPER_FAIRNESS = {
    "prema": "1.8x geomean, 2.4x max",
    "static": "1.07x geomean, 1.2x max",
    "planaria": "1.2x geomean, 1.3x max",
}
