"""Measure one workload in this process (started by ``run.py``).

Sets up (imports ``repro``, generates the workload's specs from the
seed, warms the network-cost cache), announces ``ready`` on stdout,
checks the golden reference matrix, then runs sweeps through
``ParallelRunner.run_supervised`` and the ``repro.reporting``
exporters until ``--seconds`` have passed.  The last stdout line is a
JSON result that ``run.py`` turns into the benchmark's output.

With ``--trace 1`` the sweeps alternate between untraced sweeps (the
executor metrics and the tracing-overhead base) and serial sweeps
under :class:`tracing.Tracer` (the per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from repro import reporting  # noqa: E402
from repro.config import DEFAULT_SOC  # noqa: E402
from repro.core.latency import warm_network_cost_cache  # noqa: E402
from repro.experiments.golden import (  # noqa: E402
    compute_reference_fingerprints,
    matrix_fingerprint,
)
from repro.experiments.parallel import (  # noqa: E402
    ParallelRunner,
    Supervision,
    matrices_identical,
)
from repro.experiments.runner import geomean_improvement  # noqa: E402
from repro.models.zoo import build_model  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "goldens" / "reference_matrix.json"
OUT_DIR = HERE / "out"

#: Layers whose inclusive span time is reported as ``<layer>_s``.
TIMED_LAYERS = (
    "sim.workload.generate",
    "core.latency.cost_build",
    "sim.engine.run",
    "sim.plan.apply",
    "metrics.summarize",
    "reporting.export",
)

#: Policy decision layers, reported as ``<layer>_s``, ``_calls`` and
#: ``_us`` (mean microseconds per call).
DECIDE_LAYERS = (
    "core.policy.moca.decide",
    "baselines.prema.decide",
    "baselines.planaria.decide",
    "baselines.static.decide",
)

#: Simulated metrics: (name, MoCA-over-Prema ScenarioResult attribute).
GAINS = (
    ("sla_gain_vs_prema", "sla_rate"),
    ("stp_gain_vs_prema", "stp"),
    ("fairness_gain_vs_prema", "fairness"),
)

Metrics = Dict[str, Tuple[float, str]]


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Build the specs and warm the cost cache (the program is imported
    with this module).

    Returns ``(specs, warm_seconds)``.
    """
    specs = workloads.build_specs(workload, seed)
    start = time.perf_counter()
    warm_network_cost_cache(
        [build_model(n) for n in workloads.network_names(specs)],
        DEFAULT_SOC,
    )
    return specs, time.perf_counter() - start


def host_record() -> dict:
    import multiprocessing

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            var: os.environ.get(var)
            for var in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
        "start_method": multiprocessing.get_start_method(),
    }


# ----------------------------------------------------------------------
# One sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CountingSupervision(Supervision):
    """The default supervision, also logging every retry it schedules."""

    retry_log: list = field(default_factory=list, compare=False, repr=False)

    def backoff(self, attempt: int) -> float:
        self.retry_log.append(attempt)
        return super().backoff(attempt)


@dataclass
class Sweep:
    acc: object
    matrix: Optional[dict]
    texts: List[str]
    executor_s: float
    sweep_s: float
    workers: int
    retries: int
    warmup_timeouts: int
    start: float

    @property
    def cells(self):
        return self.acc.cells()


def export(matrix) -> List[str]:
    """Per-scenario JSON and CSV exports, as ``repro sweep --out``
    writes them (kept in memory)."""
    texts = []
    for label, cell in matrix.items():
        texts.append(reporting.sweep_to_json({label: cell}))
        texts.append(reporting.sweep_to_csv({label: cell}))
    return texts


def run_sweep(specs, workers: int) -> Sweep:
    runner = ParallelRunner(workers=workers)
    sup = CountingSupervision()
    start = time.perf_counter()
    acc = runner.run_supervised(specs, supervision=sup)
    executor_end = time.perf_counter()
    matrix = acc.matrix() if acc.complete else None
    texts = export(matrix) if matrix is not None else []
    end = time.perf_counter()
    return Sweep(
        acc=acc,
        matrix=matrix,
        texts=texts,
        executor_s=executor_end - start,
        sweep_s=end - start,
        workers=runner.workers if runner.last_mode == "parallel" else 1,
        retries=len(sup.retry_log),
        warmup_timeouts=runner.total_warmup_timeouts,
        start=start,
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def golden_failures() -> int:
    """Reference-matrix cells whose fingerprint differs from the
    checked-in golden file (the file is only read)."""
    expected = json.loads(GOLDEN.read_text())["cells"]
    got = compute_reference_fingerprints()
    return sum(
        1 for key in set(expected) | set(got)
        if expected.get(key) != got.get(key)
    )


def cell_failures(sweep: Sweep, specs) -> int:
    """Cells missing (quarantined or never run) plus cells whose
    results break an invariant: every task finished, SLA rate and
    fairness in [0, 1]."""
    acc = sweep.acc
    failed = acc.expected - len(acc)
    for cell in sweep.cells:
        s = cell.summary
        if (
            s.num_tasks != specs[cell.spec_index].num_tasks
            or not 0.0 <= s.sla_rate <= 1.0
            or not 0.0 <= s.fairness <= 1.0
        ):
            failed += 1
    return failed


def export_failures(sweep: Sweep) -> int:
    """Scenarios whose JSON or CSV export does not read back as the
    swept matrix."""
    failed = 0
    labels = list(sweep.matrix)
    for i, label in enumerate(labels):
        want = {label: sweep.matrix[label]}
        json_text, csv_text = sweep.texts[2 * i], sweep.texts[2 * i + 1]
        if not (
            matrices_identical(reporting.sweep_from_json(json_text), want)
            and matrices_identical(reporting.sweep_from_csv(csv_text), want)
        ):
            failed += 1
    return failed


def fingerprint(sweep: Sweep) -> Optional[dict]:
    return matrix_fingerprint(sweep.matrix) if sweep.matrix else None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def peak_rss_mb(max_workers: int) -> float:
    """Peak RSS of this process plus ``max_workers`` times the largest
    peak among its reaped worker processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max_workers * child) / 1024.0


def simulated_metrics(matrix) -> Metrics:
    sla = [cell["moca"].sla_rate for cell in matrix.values()]
    out: Metrics = {
        "moca_sla_rate": (sum(sla) / len(sla), "ratio"),
    }
    for name, attr in GAINS:
        out[name] = (
            geomean_improvement(matrix, attr, over="prema"), "ratio"
        )
    return out


def end_to_end_metrics(sweeps: List[Sweep]) -> Metrics:
    """Host-time metrics of a run of identical sweeps: the median
    sweep, and cell percentiles over every cell of every sweep."""
    workers = max(s.workers for s in sweeps)
    sweep_s = statistics.median(s.sweep_s for s in sweeps)
    cell_ms = sorted(c.seconds * 1e3 for s in sweeps for c in s.cells)
    events = sum(c.events for c in sweeps[0].cells)
    return {
        "sweep_s": (sweep_s, "s"),
        "events_per_s": (events / sweep_s, "1/s"),
        "cell_ms_p50": (statistics.median(cell_ms), "ms"),
        "cell_ms_p90": (
            statistics.quantiles(cell_ms, n=10, method="inclusive")[8],
            "ms",
        ),
        "peak_rss_mb": (peak_rss_mb(workers if workers > 1 else 0), "MB"),
    }


def executor_metrics(sweep: Sweep) -> Dict[str, float]:
    """What the parent sees of the executor, without tracing."""
    busy = sum(c.seconds for c in sweep.cells)
    capacity = sweep.workers * sweep.executor_s
    return {
        "experiments.parallel.busy_s": busy,
        "experiments.parallel.overhead_s": capacity - busy,
        "experiments.parallel.overhead_share": (capacity - busy) / capacity,
        "experiments.parallel.retries": sweep.retries,
        "experiments.parallel.warmup_timeouts": sweep.warmup_timeouts,
    }


def traced_metrics(sweep: Sweep, spans) -> Dict[str, float]:
    """Per-layer metrics of one traced serial sweep."""
    layers = tracing.layer_totals(spans)

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    cache = sweep.acc.cache_stats()
    dec = sweep.acc.decision_stats()
    memo = cache["predict_memo_hits"] + cache["predict_memo_misses"]
    epochs = dec["block_time_reuses"] + dec["block_time_recomputes"]
    out = {f"{layer}_s": get(layer, "total_s") for layer in TIMED_LAYERS}
    for layer in DECIDE_LAYERS:
        calls = get(layer, "calls")
        out[f"{layer}_s"] = get(layer, "total_s")
        out[f"{layer}_calls"] = calls
        out[f"{layer}_us"] = out[f"{layer}_s"] / calls * 1e6 if calls else 0.0
    out.update({
        "sim.workload.generate_calls": get("sim.workload.generate", "calls"),
        "core.latency.cost_cache_hits": cache["cost_cache_hits"],
        "core.latency.cost_cache_misses": cache["cost_cache_misses"],
        "core.latency.predict_memo_hit_ratio": (
            cache["predict_memo_hits"] / memo if memo else 0.0
        ),
        "sim.engine.self_s": get("sim.engine.run", "self_s"),
        "sim.engine.events": dec["events"],
        "sim.engine.epoch_reuse_ratio": (
            dec["block_time_reuses"] / epochs if epochs else 0.0
        ),
        "sim.plan.actions": dec["plan_actions"],
        "sim.plan.useful_ratio": (
            dec["plans_applied"] / dec["decisions"]
            if dec["decisions"] else 0.0
        ),
        "reporting.export_bytes": sum(len(t.encode()) for t in sweep.texts),
        "experiments.runner.cell_self_s": get(
            "experiments.runner.cell", "self_s"
        ),
        "bench.span_coverage": (
            sum(rec["self_s"] for rec in layers.values()) / sweep.sweep_s
        ),
    })
    return out


#: Units of the per-layer metrics, by name suffix.
_UNITS = (
    ("_s", "s"), ("_us", "us"), ("_bytes", "bytes"), ("_ratio", "ratio"),
    ("_share", "ratio"), ("bench.tracing_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
)


def unit_of(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


class Ledger:
    """Cells attempted and failed over a run's sweeps, and the matrix
    fingerprint every sweep of the run must reproduce."""

    def __init__(self, specs) -> None:
        self.specs = specs
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[dict] = None

    def check(self, sweep: Sweep) -> bool:
        """Count the sweep's cells; whether its results are usable."""
        self.attempted += sweep.acc.expected
        self.failed += cell_failures(sweep, self.specs)
        if sweep.matrix is None:
            return False
        digest = fingerprint(sweep)
        if self.reference is None:
            self.reference = digest
            self.failed += export_failures(sweep)
        elif digest != self.reference:
            self.failed += sweep.acc.expected
        return True


def measure(specs, workers: int, seconds: float) -> Tuple[Metrics, Ledger]:
    """Untraced sweeps for ``seconds``: the end-to-end host-time
    metrics, then the simulated ones."""
    ledger = Ledger(specs)
    sweeps: List[Sweep] = []
    deadline = time.perf_counter() + seconds
    while not sweeps or time.perf_counter() < deadline:
        sweep = run_sweep(specs, workers)
        if not ledger.check(sweep):
            return {}, ledger
        sweeps.append(sweep)
    metrics = end_to_end_metrics(sweeps)
    metrics.update(simulated_metrics(sweeps[0].matrix))
    return metrics, ledger


def measure_traced(
    specs, workers: int, seconds: float, spans_path: Path
) -> Tuple[Metrics, Ledger]:
    """Untraced sweeps interleaved with traced serial sweeps for
    ``seconds``: the per-layer metrics.  The first traced sweep's spans
    are written to ``spans_path``."""
    tracer = tracing.Tracer()
    ledger = Ledger(specs)
    untraced: List[Sweep] = []
    serial: List[Sweep] = []
    traced: List[Sweep] = []
    layer_runs: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain = run_sweep(specs, workers)
        base = run_sweep(specs, 1) if workers > 1 else plain
        tracer.reset()
        tracer.install()
        try:
            sweep = run_sweep(specs, 1)
        finally:
            tracer.uninstall()
        for one in {id(s): s for s in (plain, base, sweep)}.values():
            if not ledger.check(one):
                return {}, ledger
        untraced.append(plain)
        serial.append(base)
        traced.append(sweep)
        layer_runs.append(traced_metrics(sweep, tracer.spans))
        if len(traced) == 1:
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write(spans_path, sweep.start)
    tracer.reset()
    values: Dict[str, float] = {
        name: statistics.median(run[name] for run in layer_runs)
        for name in layer_runs[0]
    }
    executor = [executor_metrics(s) for s in untraced]
    for name in executor[0]:
        values[name] = statistics.median(run[name] for run in executor)
    values["bench.tracing_overhead"] = min(
        s.sweep_s for s in traced
    ) / min(s.sweep_s for s in serial)
    coverage = values["bench.span_coverage"]
    if workers == 1 and abs(coverage - 1.0) > 0.05:
        print(
            f"perfbench: span coverage {coverage:.3f} is outside "
            f"1 +/- 0.05; a layer is missing from the ledger",
            file=sys.stderr,
        )
        ledger.failed += 1
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    metrics.update(simulated_metrics(traced[0].matrix))
    return metrics, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    specs, warm_s = setup(args.workload, args.seed)
    emit({"event": "ready", "host": host_record()})
    if args.setup_only:
        return 0

    workers = workloads.WORKLOADS[args.workload].workers
    golden_failed = golden_failures()
    if args.trace:
        metrics, ledger = measure_traced(
            specs, workers, args.seconds,
            OUT_DIR / f"spans-{args.workload}.csv",
        )
        if metrics:
            metrics["core.latency.setup_warm_s"] = (warm_s, "s")
    else:
        metrics, ledger = measure(specs, workers, args.seconds)
    if golden_failed:
        print(
            f"perfbench: {golden_failed} reference-matrix cell(s) differ "
            f"from {GOLDEN.relative_to(ROOT)}",
            file=sys.stderr,
        )
    failed = ledger.failed + golden_failed
    emit(
        {
            "event": "result",
            "cells": ledger.attempted,
            "failed": failed,
            "metrics": {k: list(v) for k, v in metrics.items()},
        }
    )
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
