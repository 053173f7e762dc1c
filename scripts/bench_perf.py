"""Performance trajectory benchmark: serial vs parallel, engine event rate.

Times a fixed reference matrix (the paper's nine scenarios at a reduced
size) through the serial and parallel experiment executors, measures
the simulator's event rate on one reference MoCA run, checks the two
executor paths produce bit-identical metrics, and writes everything to
``BENCH_perf.json`` so every future performance PR has a trajectory to
beat.

Both timed legs run warm and symmetric: the parent's caches are
pre-built, then the worker pool is started and cache-warmed (via the
executor's pool initializer plus a barrier-rendezvoused probe per
worker) before *either* leg's timer starts — spawn-start hosts no
longer pay worker cold-start inside the timed region (the PR 1 review
flag), and fork-start workers snapshot the parent before the serial
leg can build up extra memo state for them to inherit.
``host.start_method`` and ``parallel.cache`` in the JSON record the
start method and the aggregated per-cell cache hit/miss counters.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py [--tasks 120]
        [--seeds 1,2] [--workers N] [--out BENCH_perf.json]

The matrix is also run as 2 shard partials (``repro.experiments.
sharding.run_shard`` on the warm pool) and merged back; ``shards`` in
the JSON records per-shard wall time — ``max_shard_seconds`` projects
a 2-host run — so the shard-scaling trajectory is tracked alongside
the single-host one.

``robustness`` in the JSON records the supervised executor's
trajectory: the same matrix through ``run_supervised`` (per-cell
submission with retry/timeout bookkeeping) fault-free, its overhead
ratio vs the plain parallel leg (informational, not gated), and the
warm-pool's ``warmup_timeouts`` telemetry.  The supervised run's
metrics must still be bit-identical to serial.

``coordinator`` in the JSON records the dynamic work-stealing
trajectory: the same matrix drained through an in-process
``Coordinator`` by two lease-stepping ``SweepWorker``s sharing the
warm pool.  ``efficiency_vs_static_shards`` (static shard wall total
/ coordinator busy total) is the pure cost of leasing in
cost-balanced batches instead of pre-planning slices and is gated
>= 0.67; ``projected_2_worker_speedup`` projects a two-worker
distributed run the way ``max_shard_seconds`` projects two hosts.

``decisions`` in the JSON records the decision-cadence trajectory:
plans emitted/applied/no-op and the allocation-epoch cache reuse
ratio under the every-event and block-boundary cadences (both pure
simulation counters, deterministic per configuration).

Exit status is non-zero when the parallel path, the supervised run,
the coordinator or the sharded merge produced different metrics than
the serial path, or when a controlled ratio gate fails: the
block-boundary cadence must achieve a strictly higher epoch reuse
ratio than every-event, and the coordinator's lease efficiency must
stay >= 0.67.  The raw serial/parallel wall-clock ``speedup`` and the
engine event rate are recorded but deliberately *not* gated — on a
1-CPU container a process pool can only add overhead, and absolute
rates swing with box load.  ``perfbench/`` is the end-to-end sweep
benchmark; engine-vs-reference identity is pinned by
``tests/test_kernel.py``.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP thread pools to one thread BEFORE numpy can
# load (the repro imports below pull it in): the bench measures
# single-thread event rates and ratio A/Bs, and a library-spawned
# thread pool would turn them into a function of the box's core
# count.  ``setdefault`` so an explicit override in the environment
# still wins.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
):
    os.environ.setdefault(_var, "1")

import argparse
import json
import multiprocessing
import sys
import time
from typing import Dict, List, Optional

from repro.config import DEFAULT_SOC
from repro.core.latency import warm_network_cost_cache
from repro.core.policy import MoCAPolicy
from repro.experiments.parallel import (
    ParallelRunner,
    Supervision,
    matrices_identical,
)
from repro.experiments.results import (
    DECISION_COUNTER_FIELDS,
    SweepResults,
    cell_manifest,
)
from repro.experiments.runner import (
    default_policies,
    run_cell_detail,
    run_matrix,
    standard_matrix,
)
from repro.experiments.execution import (
    Coordinator,
    InProcessTransport,
    SweepWorker,
)
from repro.experiments.sharding import run_shard
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import workload_set
from repro.sim.engine import Simulator
from repro.sim.qos import QosLevel, QosModel
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

try:
    import numpy as _numpy

    _NUMPY_VERSION: Optional[str] = _numpy.__version__
except ImportError:  # the engine's scalar paths run without numpy
    _NUMPY_VERSION = None


def _bench_engine(
    num_tasks: int, seed: int, reps: int = 3
) -> Dict[str, object]:
    """Event-rate micro-benchmark of one reference MoCA simulation.

    The same task list is simulated ``reps`` times and the fastest
    wall time is kept (the simulation is deterministic; only the clock
    is noisy, and timing noise is purely additive, so the minimum is
    the low-variance estimator).  Informational: absolute rates swing
    with box load.
    """
    soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    gen = WorkloadGenerator(
        soc, workload_set("C"), mem, QosModel(soc, slack_factor=2.0)
    )
    tasks = gen.generate(
        WorkloadConfig(
            num_tasks=num_tasks,
            qos_level=QosLevel.MEDIUM,
            load_factor=0.7,
            seed=seed,
        )
    )
    best = float("inf")
    for _ in range(max(reps, 1)):
        policy = MoCAPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        t0 = time.perf_counter()
        result = sim.run()
        best = min(best, time.perf_counter() - t0)
    return {
        "seconds": round(best, 4),
        "events": result.events,
        "events_per_sec": round(result.events / best, 1),
        "block_time_recomputes": result.block_time_recomputes,
        "block_time_reuses": result.block_time_reuses,
        "makespan": result.makespan,
    }


def _bench_decisions(num_tasks: int, seeds) -> Dict[str, object]:
    """Decision/epoch telemetry per cadence over the reference matrix.

    Runs the 9-scenario x 4-policy reference matrix serially under the
    every-event (default) and block-boundary cadences and aggregates
    the engine's decision counters.  The counters are pure simulation
    state — deterministic per configuration, independent of host
    speed — so the gate below (block-boundary must achieve a
    *strictly higher* epoch-cache reuse ratio than every-event) can
    never fail spuriously.
    """
    from dataclasses import replace

    out: Dict[str, object] = {}
    for cadence in ("every-event", "block-boundary"):
        specs = [
            replace(spec, decision_cadence=cadence)
            for spec in standard_matrix(num_tasks=num_tasks, seeds=seeds)
        ]
        totals = {name: 0 for name in DECISION_COUNTER_FIELDS}
        t0 = time.perf_counter()
        for spec in specs:
            for name, factory in default_policies().items():
                for seed in spec.seeds:
                    _, sim_result = run_cell_detail(
                        spec, name, factory, seed
                    )
                    for counter in DECISION_COUNTER_FIELDS:
                        totals[counter] += getattr(sim_result, counter)
        ratio = totals["block_time_reuses"] / max(
            totals["block_time_recomputes"], 1
        )
        out[cadence] = {
            **totals,
            "epoch_reuse_ratio": round(ratio, 6),
            "seconds": round(time.perf_counter() - t0, 3),
        }
    every = out["every-event"]["epoch_reuse_ratio"]
    regulated = out["block-boundary"]["epoch_reuse_ratio"]
    out["gate"] = {
        "passed": regulated > every,
        "note": (
            "block-boundary cadence must reuse the allocation-epoch "
            "cache at a strictly higher rate than every-event on the "
            "reference matrix"
        ),
    }
    return out


def _prewarm_caches() -> None:
    """Warm the parent's network-cost and predict-memo caches up front
    so the timed serial leg starts warm — symmetric with the parallel
    leg, whose workers are warmed by the pool initializer before its
    timer starts."""
    soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    warm_network_cost_cache(workload_set("C"), soc, mem)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tasks", type=int, default=120)
    parser.add_argument(
        "--seeds",
        type=lambda s: tuple(int(x) for x in s.split(",") if x),
        default=(1, 2),
    )
    parser.add_argument(
        "--workers", type=int, default=max(2, os.cpu_count() or 1)
    )
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument(
        "--engine-reps", type=int, default=5,
        help="timing rounds of the engine microbench (the best time "
             "is reported)",
    )
    args = parser.parse_args(argv)
    if not args.seeds:
        parser.error("--seeds must name at least one seed")
    cpu_count = os.cpu_count() or 1

    print(
        f"reference matrix: 9 scenarios x 4 policies x {len(args.seeds)} "
        f"seed(s), {args.tasks} tasks/cell",
        file=sys.stderr,
    )

    engine = _bench_engine(args.tasks, seed=args.seeds[0],
                           reps=args.engine_reps)
    print(
        f"engine: {engine['events_per_sec']:,} ev/s "
        f"({engine['events']} events in {engine['seconds']}s)",
        file=sys.stderr,
    )

    # Decision-cadence trajectory: one seed keeps the two extra serial
    # matrix passes cheap; the counters are deterministic either way.
    decisions = _bench_decisions(args.tasks, seeds=args.seeds[:1])
    print(
        f"decisions: epoch reuse ratio "
        f"{decisions['every-event']['epoch_reuse_ratio']:.4f} "
        f"every-event vs "
        f"{decisions['block-boundary']['epoch_reuse_ratio']:.4f} "
        f"block-boundary "
        f"(gate {'ok' if decisions['gate']['passed'] else 'FAILED'})",
        file=sys.stderr,
    )

    specs = standard_matrix(num_tasks=args.tasks, seeds=args.seeds)
    start_method = multiprocessing.get_start_method()
    _prewarm_caches()

    # Spin the worker pool up and warm every worker's caches BEFORE
    # either timer starts.  Spawn-start workers previously paid the
    # full cold-start inside the timed parallel leg — which could
    # fail the speed gate spuriously on spawn hosts.  Starting the
    # pool *before the serial leg* also keeps fork hosts symmetric:
    # workers fork from the parent at exactly the _prewarm_caches
    # state, so the serial run's additional in-process memo build-up
    # (reduced-bandwidth predict points it probes along the way)
    # cannot leak into the workers and subsidise the parallel leg.
    runner = ParallelRunner(workers=args.workers or None)
    warm_pids = runner.start_pool(specs)
    warmup_timeouts = runner.last_warmup_timeouts
    print(
        f"pool warmed: {len(warm_pids)} worker(s), "
        f"{warmup_timeouts} warmup timeout(s), "
        f"start_method={start_method}",
        file=sys.stderr,
    )

    t0 = time.perf_counter()
    serial_matrix = run_matrix(specs)
    serial_s = time.perf_counter() - t0
    print(f"serial matrix:   {serial_s:6.2f}s", file=sys.stderr)

    t0 = time.perf_counter()
    parallel_matrix = runner.run_matrix(specs)
    parallel_s = time.perf_counter() - t0
    cell_cache = runner.last_sweep.cache_stats()
    # Snapshot mode/pids now: the shard legs below reuse the runner
    # and overwrite last_mode / last_sweep.
    parallel_mode = runner.last_mode
    parallel_pids = len(runner.last_sweep.worker_pids())
    parallel_timings = list(runner.last_timings)
    print(
        f"parallel matrix: {parallel_s:6.2f}s "
        f"(workers={runner.workers}, mode={parallel_mode}, "
        f"cost cache {cell_cache['cost_cache_hits']} hits / "
        f"{cell_cache['cost_cache_misses']} misses)",
        file=sys.stderr,
    )

    # Robustness trajectory: the same matrix through the supervised
    # executor (per-cell submission, retry/timeout bookkeeping, cell
    # journaling hooks) with no faults injected.  The ratio vs the
    # plain parallel leg is the pure supervision overhead —
    # informational, not gated, but tracked so a regression in the
    # supervisor's dispatch loop shows up in the trajectory.
    t0 = time.perf_counter()
    supervised_acc = runner.run_supervised(
        specs, supervision=Supervision(backoff_base=0.0)
    )
    supervised_s = time.perf_counter() - t0
    supervised_mode = runner.last_mode
    supervised_identical = matrices_identical(
        serial_matrix, supervised_acc.matrix()
    )
    supervision_overhead = (
        supervised_s / parallel_s if parallel_s > 0 else float("inf")
    )
    print(
        f"supervised matrix: {supervised_s:6.2f}s "
        f"(mode={supervised_mode}, "
        f"x{supervision_overhead:.2f} vs plain parallel, "
        f"degraded={supervised_acc.degraded})",
        file=sys.stderr,
    )

    # Shard-scaling trajectory: the same matrix as 2 shard partials
    # (reusing the warm pool), merged back and checked against serial.
    # max(shard seconds) projects the wall time of a 2-host run; every
    # sharding PR should improve (or hold) these numbers.
    num_shards = 2
    manifest = cell_manifest(specs)
    shard_partials = []
    for i in range(num_shards):
        partial = run_shard(manifest, i, num_shards, runner=runner)
        shard = partial["shard"]
        print(
            f"shard {i + 1}/{num_shards}:  {shard['wall_seconds']:6.2f}s "
            f"({len(partial['cells'])} cells, cost {shard['cost']}, "
            f"mode={shard['mode']})",
            file=sys.stderr,
        )
        shard_partials.append(partial)

    # Coordinator/lease trajectory (dynamic work-stealing): the same
    # matrix drained through an in-process coordinator by two workers
    # sharing the warm pool, stepped alternately so every lease
    # round-trip sits inside the measured path.  The busy-time ratio
    # vs the static shard legs is the pure cost of leasing in
    # cost-balanced batches instead of pre-planning two slices — it
    # is gated (floor 0.67: dynamic leasing may cost at most ~1.5x
    # the static planner's wall total, in practice it is ~1.0).
    # max per-worker busy seconds projects a 2-worker distributed run.
    coordinator = Coordinator(manifest, lease_ttl=None, workers_hint=2)
    coord_transport = InProcessTransport(coordinator)
    bench_workers = [
        SweepWorker(coord_transport, worker_id=name, runner=runner)
        for name in ("bench-a", "bench-b")
    ]
    coord_busy = {w.worker_id: 0.0 for w in bench_workers}
    coord_leases = {w.worker_id: 0 for w in bench_workers}
    t0 = time.perf_counter()
    while not coordinator.drained:
        progressed = False
        for worker in bench_workers:
            outcome = worker.step()
            if outcome is not None:
                coord_busy[worker.worker_id] += outcome["seconds"]
                coord_leases[worker.worker_id] += 1
                progressed = True
        if not progressed:  # nothing leasable and not drained: stuck
            break
    coordinator_s = time.perf_counter() - t0
    runner.close_pool()
    coordinator_identical = (
        coordinator.acc.complete
        and matrices_identical(serial_matrix, coordinator.acc.matrix())
    )
    coord_busy_total = sum(coord_busy.values())
    shard_total = sum(
        p["shard"]["wall_seconds"] for p in shard_partials
    )
    coordinator_efficiency = (
        shard_total / coord_busy_total if coord_busy_total > 0
        else 0.0
    )
    coord_status = coordinator.status()
    print(
        f"coordinator:     {coordinator_s:6.2f}s "
        f"({sum(coord_leases.values())} leases over 2 workers, "
        f"x{1 / coordinator_efficiency:.2f} busy time vs static "
        f"shards)" if coordinator_efficiency > 0 else
        "coordinator:     stalled",
        file=sys.stderr,
    )
    merged_matrix = SweepResults.from_partials(shard_partials).matrix()
    shards_identical = matrices_identical(serial_matrix, merged_matrix)
    shard_seconds = [
        p["shard"]["wall_seconds"] for p in shard_partials
    ]

    identical = matrices_identical(serial_matrix, parallel_matrix)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cell_seconds = sorted(t.seconds for t in parallel_timings)
    # The perf gate reads the *controlled ratio* metrics — each one a
    # same-process A/B of deterministic work, immune to box load and
    # CPU count — rather than the raw serial/parallel wall-clock
    # ratio, which on 1-CPU containers measures only process-pool
    # overhead and made the old gate flaky (ROADMAP perf note).  The
    # wall-clock speedup stays recorded (informational) above.
    ratio_gates = {
        "epoch_reuse_ratio_improves": (
            1.0 if decisions["gate"]["passed"] else 0.0, 1.0
        ),
        "coordinator_efficiency": (coordinator_efficiency, 0.67),
    }
    gate_ok = all(v >= floor for v, floor in ratio_gates.values())

    report = {
        "reference": {
            "scenarios": len(specs),
            "policies": 4,
            "seeds": list(args.seeds),
            "tasks_per_cell": args.tasks,
            "cells": len(cell_seconds),
        },
        "host": {
            "cpu_count": cpu_count,
            "start_method": start_method,
            "numpy": _NUMPY_VERSION,
            "thread_pins": {
                var: os.environ.get(var)
                for var in (
                    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS",
                )
            },
        },
        "serial": {"seconds": round(serial_s, 3)},
        "parallel": {
            "seconds": round(parallel_s, 3),
            "workers": runner.workers,
            "mode": parallel_mode,
            "warmed_workers": len(warm_pids),
            "warmup_timeouts": warmup_timeouts,
            "worker_pids_seen": parallel_pids,
            "cache": cell_cache,
            "cell_seconds_min": round(cell_seconds[0], 3),
            "cell_seconds_max": round(cell_seconds[-1], 3),
            "cell_seconds_mean": round(
                sum(cell_seconds) / len(cell_seconds), 3
            ),
        },
        "speedup": round(speedup, 3),
        "identical_metrics": identical,
        "shards": {
            "count": num_shards,
            "per_shard": [
                {
                    "index": i + 1,
                    "cells": len(p["cells"]),
                    "cost": p["shard"]["cost"],
                    "seconds": round(p["shard"]["wall_seconds"], 3),
                    "mode": p["shard"]["mode"],
                }
                for i, p in enumerate(shard_partials)
            ],
            "max_shard_seconds": round(max(shard_seconds), 3),
            "projected_2_host_speedup": round(
                serial_s / max(shard_seconds), 3
            ) if max(shard_seconds) > 0 else None,
            "merge_identical": shards_identical,
        },
        "coordinator": {
            "seconds": round(coordinator_s, 3),
            "workers": len(bench_workers),
            "leases": {
                name: coord_leases[name] for name in sorted(coord_leases)
            },
            "busy_seconds": {
                name: round(coord_busy[name], 3)
                for name in sorted(coord_busy)
            },
            "efficiency_vs_static_shards": round(
                coordinator_efficiency, 3
            ),
            "projected_2_worker_speedup": round(
                serial_s / max(coord_busy.values()), 3
            ) if max(coord_busy.values()) > 0 else None,
            "warmup_timeouts_telemetry": coord_status[
                "warmup_timeouts"
            ],
            "identical_metrics": coordinator_identical,
            "note": (
                "same matrix drained by 2 in-process lease-stepping "
                "workers on the warm pool; efficiency = static shard "
                "wall total / coordinator busy total (gated >= 0.67)"
            ),
        },
        "engine": engine,
        "decisions": decisions,
        "robustness": {
            "supervised_seconds": round(supervised_s, 3),
            "mode": supervised_mode,
            "overhead_vs_parallel": round(supervision_overhead, 3),
            "identical_metrics": supervised_identical,
            "degraded": supervised_acc.degraded,
            "warmup_timeouts": warmup_timeouts,
            "note": (
                "fault-free supervised executor vs plain parallel; "
                "the overhead ratio is informational (not gated)"
            ),
        },
        "gate": {
            "passed": gate_ok,
            "ratios": {
                name: {"value": value, "floor": floor}
                for name, (value, floor) in ratio_gates.items()
            },
            "wall_clock_speedup": round(speedup, 3),
            "note": (
                "gated on controlled ratio metrics (epoch-reuse "
                "improvement, coordinator lease efficiency vs static "
                "shards); the raw wall-clock serial/parallel speedup "
                "and the engine event rate are recorded but not gated "
                "(flaky on 1-CPU containers)"
            ),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(
        f"speedup x{speedup:.2f}, identical_metrics={identical} "
        f"-> {args.out}",
        file=sys.stderr,
    )

    if not identical:
        print("FAIL: parallel metrics differ from serial", file=sys.stderr)
        return 1
    if not shards_identical:
        print(
            "FAIL: sharded merge metrics differ from serial",
            file=sys.stderr,
        )
        return 1
    if not supervised_identical or supervised_acc.degraded:
        print(
            "FAIL: fault-free supervised run diverged from serial",
            file=sys.stderr,
        )
        return 1
    if not coordinator_identical:
        print(
            "FAIL: coordinator-drained metrics differ from serial",
            file=sys.stderr,
        )
        return 1
    if not gate_ok:
        for name, (value, floor) in ratio_gates.items():
            if value < floor:
                print(
                    f"FAIL: ratio gate {name} = {value} < {floor}",
                    file=sys.stderr,
                )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
