"""Quick end-to-end smoke run of all four policies on one scenario,
plus a tiny 2-worker parallel matrix cross-checked against serial."""

import sys
import time

from repro.baselines import PlanariaPolicy, PremaPolicy, StaticPartitionPolicy
from repro.config import DEFAULT_SOC
from repro.core.policy import MoCAPolicy
from repro.experiments.parallel import matrices_identical
from repro.experiments.runner import ScenarioSpec, run_scenario
from repro.metrics import summarize
from repro.models.zoo import workload_set
from repro.sim.engine import run_simulation
from repro.sim.qos import QosLevel
from repro.sim.workload import WorkloadConfig, WorkloadGenerator


def main() -> None:
    set_name = sys.argv[1] if len(sys.argv) > 1 else "C"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 60
    level = {"H": QosLevel.HARD, "M": QosLevel.MEDIUM, "L": QosLevel.LIGHT}[
        sys.argv[3] if len(sys.argv) > 3 else "M"
    ]
    soc = DEFAULT_SOC
    gen = WorkloadGenerator(soc, workload_set(set_name))
    tasks = gen.generate(WorkloadConfig(num_tasks=n, qos_level=level, seed=1))
    for pol in (PremaPolicy(), StaticPartitionPolicy(), PlanariaPolicy(),
                MoCAPolicy()):
        t0 = time.time()
        res = run_simulation(soc, tasks, pol)
        s = summarize(pol.name, res.results)
        print(
            f"{pol.name:10s} sla={s.sla_rate:5.2f} "
            f"grp={{{', '.join(f'{k}:{v:.2f}' for k, v in s.sla_by_group.items())}}} "
            f"stp/n={s.stp_normalized:5.2f} fair={s.fairness:7.4f} "
            f"slow={s.mean_slowdown:6.2f} t={time.time() - t0:5.2f}s"
        )

    # Tier-1-adjacent: a tiny 2-worker parallel matrix must reproduce
    # the serial path bit-for-bit.
    spec = ScenarioSpec(
        workload_set=set_name, qos_level=level,
        num_tasks=min(n, 24), seeds=(1,),
    )
    t0 = time.time()
    serial = run_scenario(spec)
    parallel = run_scenario(spec, workers=2)
    match = matrices_identical(
        {spec.label: serial}, {spec.label: parallel}
    )
    print(
        f"parallel(2) vs serial: "
        f"{'OK' if match else 'MISMATCH'} t={time.time() - t0:5.2f}s"
    )
    if not match:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
