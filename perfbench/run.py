"""Sweep benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ref-matrix --seed 1 \
        --seconds 50 --trace 0

Set-up is timed in fresh processes: several set-up probes, then the
measuring process (``sweep.py``), each timed from spawn until it
reports ready; ``setup_s`` is their median.  BLAS thread pools are
pinned to one thread in every process.  The measuring process's
result becomes the last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  Exits non-zero when an output check
fails, and without a result line when the program cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Set-up probes run before the measuring process (which is one more
#: set-up sample).
SETUP_PROBES = 6

#: Seconds a process may take to report ready.
READY_TIMEOUT = 60

BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


#: Simulated metrics: printed, not part of the result line.
SIMULATED = (
    "moca_sla_rate", "sla_gain_vs_prema", "stp_gain_vs_prema",
    "fairness_gain_vs_prema",
)


class BenchError(RuntimeError):
    """The program could not be set up or measured."""


def spawn(cmd, env, timeout: float):
    """Run ``cmd``; return (seconds from spawn to its ready line,
    parsed stdout records, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        cwd=HERE.parent,
    )
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    records = []
    for line in (first + rest).splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    if not records or records[0].get("event") != "ready":
        raise BenchError(f"{cmd[1]} exited {proc.returncode} before ready")
    return ready_s, records, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Sweep benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ, **BLAS_PINS)
    cmd = [
        sys.executable, str(HERE / "sweep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    try:
        setups = [
            spawn(cmd + ["--setup-only"], env, READY_TIMEOUT)[0]
            for _ in range(SETUP_PROBES)
        ]
        ready_s, records, code = spawn(
            cmd + ["--seconds", str(args.seconds),
                   "--trace", str(args.trace)],
            env, READY_TIMEOUT + 3 * args.seconds + 60,
        )
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups.append(ready_s)
    result = records[-1]
    if result.get("event") != "result" or code not in (0, 1):
        print(f"perfbench: measuring process exited {code} without a "
              f"result", file=sys.stderr)
        return 2

    print(f"# host {json.dumps(records[0]['host'], sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: setup samples "
          + " ".join(f"{s:.4f}" for s in setups))
    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = (statistics.median(setups), "s")
    for name in sorted(measured):
        value, unit = measured[name]
        print(f"{name} {value:.6g} {unit}")
    print(f"cells {result['cells']} count")
    print(f"cells_failed {result['failed']} count")
    # The simulated metrics vary with the seed far beyond any host-time
    # bound, so they are printed above but kept out of the result.
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in measured.items()
        if name not in SIMULATED
    }
    correct = code == 0 and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result["cells"]),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
