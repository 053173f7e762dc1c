"""Golden regression: pin the reference matrix's metric fingerprints.

The 36 reference (scenario, policy) cells — Table III sets A/B/C
crossed with QoS-H/M/L, all four policies — are fingerprinted at full
float precision and compared against ``tests/goldens/
reference_matrix.json``.  A refactor that silently changes simulator
outputs fails here.

After an *intentional* output change, re-bless with::

    PYTHONPATH=src python scripts/bless_goldens.py
"""

import json
from pathlib import Path

from repro.experiments.golden import (
    compute_reference_fingerprints,
    matrix_fingerprint,
)
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import run_matrix

GOLDEN_PATH = Path(__file__).parent / "goldens" / "reference_matrix.json"

RE_BLESS = "PYTHONPATH=src python scripts/bless_goldens.py"


def load_golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; create it with: {RE_BLESS}"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_reference_matrix_matches_goldens():
    golden = load_golden()
    actual = compute_reference_fingerprints(
        num_tasks=golden["num_tasks"], seeds=tuple(golden["seeds"])
    )
    expected = golden["cells"]
    assert set(actual) == set(expected), (
        "reference matrix cells changed shape; if intentional, "
        f"re-bless with: {RE_BLESS}"
    )
    mismatched = sorted(
        cell for cell in expected if actual[cell] != expected[cell]
    )
    assert not mismatched, (
        f"{len(mismatched)}/{len(expected)} reference cells changed "
        f"metrics: {mismatched[:6]}{'...' if len(mismatched) > 6 else ''} "
        f"— simulator outputs moved. If intentional, re-bless with: "
        f"{RE_BLESS}"
    )


def test_parallel_path_matches_goldens_too():
    """The golden pins must hold through the parallel executor as well
    (serial/parallel bit-identity, enforced end to end)."""
    golden = load_golden()
    from repro.experiments.golden import reference_specs

    specs = reference_specs(
        num_tasks=golden["num_tasks"], seeds=tuple(golden["seeds"])
    )[:3]  # one workload set is enough here; the serial test covers all
    runner = ParallelRunner(workers=2)
    matrix = runner.run_supervised(specs).matrix()
    actual = matrix_fingerprint(matrix)
    expected = {
        cell: digest
        for cell, digest in golden["cells"].items()
        if cell.startswith("Workload-A/")
    }
    for cell, digest in expected.items():
        assert actual[cell] == digest, cell
    if runner.last_mode != "parallel":
        import pytest

        pytest.skip(
            "process pool unavailable: goldens checked via serial fallback"
        )
