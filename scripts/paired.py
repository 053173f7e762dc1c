#!/usr/bin/env python3
"""Compare the work tree against a revision on the sweep benchmark,
in alternating pairs.

Usage::

    python scripts/paired.py REV --workload W --seeds 1,2 --pairs 10 \\
        [--seconds 50] [--trace 0|1]

REV's committed files are extracted (``git archive``) into a fresh
temporary directory; ``perfbench/run.py`` then runs once in each tree
per pair, alternating which side goes first, cycling over the seeds.
The report gives, per metric of ``BENCHMARK.json``, the median and
interquartile range of each side, the per-pair change, and how many
pairs the work tree won.

The verdict applies three rules to the end-to-end metrics:

- **bound**: the work tree's median may be worse than REV's by at most
  the metric's ``bound`` (a fraction of REV's median), and no pair may
  fail more cells than REV's worst pair;
- **spread**: a metric whose interquartile range, on either side,
  exceeds its bound (relative to that side's median) is unresolved,
  unless every work-tree run beats every REV run;
- **claim**: a gain holds when at least 10 pairs ran, the work tree
  wins at least 9 of every 10 of them and its median beats REV's by
  more than REV's interquartile range.

Exit status: 0 when every bound holds and no metric is unresolved, 1
otherwise or when REV cannot be extracted, 2 when a run produced no
result.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def load_metric_specs() -> Dict[str, dict]:
    """``{metric: spec}`` from BENCHMARK.json; end-to-end specs carry
    a ``bound``, per-layer ones do not."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: dict(m) for m in config["per_layer"]}
    specs.update({m["name"]: dict(m) for m in config["end_to_end"]})
    return specs


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def gain(value: float, base: float, better: str) -> float:
    """Relative improvement of ``value`` over ``base`` (negative =
    worse), oriented by the metric's ``better`` direction."""
    if base == 0:
        return 0.0
    delta = (value - base) / abs(base)
    return delta if better == "higher" else -delta


def judge(parent: Sequence[float], change: Sequence[float],
          spec: dict) -> dict:
    """One metric's statistics and verdict over paired samples."""
    better = spec["better"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = [gain(c, p, better) for p, c in zip(parent, change)]
    wins = sum(1 for g in pairs if g > 0)
    median_gain = gain(c_med, p_med, better)
    bound = spec.get("bound")
    worst_change = max(change) if better == "lower" else min(change)
    best_parent = min(parent) if better == "lower" else max(parent)
    spread = max(
        (p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    return {
        "unit": spec["unit"],
        "parent_median": p_med,
        "parent_iqr": p_q3 - p_q1,
        "change_median": c_med,
        "change_iqr": c_q3 - c_q1,
        "median_gain": median_gain,
        "pair_gains": pairs,
        "wins": wins,
        "within_bound": None if bound is None else median_gain >= -bound,
        "unresolved": (
            bound is not None and spread > bound
            and gain(worst_change, best_parent, better) <= 0
        ),
        "claim_holds": (
            len(pairs) >= 10
            and 10 * wins >= 9 * len(pairs)
            and median_gain > 0
            and abs(c_med - p_med) > p_q3 - p_q1
        ),
    }


def extract(rev: str, dest: Path) -> None:
    """Write ``rev``'s committed files into ``dest``; SystemExit with
    git's message when ``rev`` cannot be archived."""
    proc = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT,
        capture_output=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"paired: cannot archive {rev!r}: "
            f"{proc.stderr.decode(errors='replace').strip()}"
        )
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree: Path, workload: str, seed: int, seconds: int,
              trace: int) -> Optional[dict]:
    """One ``perfbench/run.py`` run in ``tree``; its result line, or
    None when it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return None


def report(results: Dict[str, dict], failed: Dict[str, List[int]]) -> bool:
    """Print the comparison table and verdict; True when it passes."""
    print(f"{'metric':40s} {'parent':>12s} {'iqr':>10s} {'change':>12s} "
          f"{'iqr':>10s} {'gain':>8s} {'wins':>6s}  verdict")
    ok = True
    for name, r in results.items():
        verdict = []
        if r["within_bound"] is False:
            verdict.append("WORSE THAN BOUND")
            ok = False
        if r["unresolved"]:
            verdict.append("UNRESOLVED (spread above bound)")
            ok = False
        if r["claim_holds"]:
            verdict.append("claimable gain")
        n = len(r["pair_gains"])
        print(f"{name:40s} {r['parent_median']:12.5g} "
              f"{r['parent_iqr']:10.3g} {r['change_median']:12.5g} "
              f"{r['change_iqr']:10.3g} {r['median_gain']:+8.2%} "
              f"{r['wins']:>3d}/{n:<2d}  {', '.join(verdict) or 'ok'}")
        print(f"{'':40s} per pair: "
              + " ".join(f"{g:+.1%}" for g in r["pair_gains"]))
    if max(failed["change"], default=0) > max(failed["parent"], default=0):
        print(f"cells_failed: {failed['change']} vs parent "
              f"{failed['parent']}: MORE FAILURES")
        ok = False
    else:
        print(f"cells_failed: {failed['change']} (parent "
              f"{failed['parent']})")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0].rstrip(",")
    )
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1",
                        help="comma-separated seeds, cycled over pairs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error("--seeds must be comma-separated integers")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    specs = load_metric_specs()

    samples: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
    failed: Dict[str, List[int]] = {"parent": [], "change": []}
    scratch = Path(tempfile.mkdtemp(prefix="paired-"))
    try:
        parent_tree = scratch / "rev"
        extract(args.rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_bench(trees[side], args.workload, seed,
                                   args.seconds, args.trace)
                if result is None:
                    print(f"pair {i + 1}: {side} produced no result",
                          file=sys.stderr)
                    return 2
                failed[side].append(result["failed"])
                for name, metric in result["metrics"].items():
                    samples[side].setdefault(name, []).append(
                        metric["value"]
                    )
            print(f"# pair {i + 1}/{args.pairs} seed {seed} "
                  f"({order[0]} first)", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# {args.workload}: work tree vs {args.rev}, {args.pairs} "
          f"pairs, seeds {args.seeds}, --seconds {args.seconds} "
          f"--trace {args.trace}")
    results = {
        name: judge(samples["parent"][name], samples["change"][name],
                    specs[name])
        for name in specs
        if name in samples["parent"] and name in samples["change"]
    }
    ok = report(results, failed)
    print(json.dumps({"workload": args.workload, "rev": args.rev,
                      "pass": ok, "metrics": results,
                      "cells_failed": failed}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
