"""Figure 1: latency increase from co-located DNN applications.

The paper co-locates four DNNs (ResNet-50, AlexNet, GoogLeNet,
SqueezeNet — its references [20], [29], [48], [23]) on the SoC with
*no* contention management, randomly staggers their start times, and
reports per-network average and worst-case end-to-end latency
normalized to isolated execution at co-location degrees x = 1..4, over
300 randomized runs.

We reproduce it exactly: each trial picks a subject network plus
``x - 1`` random co-runners, dispatches them at random offsets on
static 2-tile slots with unmanaged memory, and measures the subject's
runtime against its isolated 2-tile runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.static_partition import StaticPartitionPolicy
from repro.config import DEFAULT_SOC, SoCConfig
from repro.core.latency import build_network_cost
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model
from repro.sim.engine import run_simulation
from repro.sim.job import Task
from repro.sim.qos import QosModel

#: The four DNNs of the motivation study.
FIG1_NETWORKS: Tuple[str, ...] = (
    "resnet50", "alexnet", "googlenet", "squeezenet"
)


@dataclass(frozen=True)
class Fig1Row:
    """One bar group of Figure 1.

    Attributes:
        network: Subject network name.
        degree: Co-location degree x (1 = isolated).
        avg_increase: Mean latency normalized to isolated (Fig. 1a).
        worst_increase: Worst-case normalized latency (Fig. 1b).
    """

    network: str
    degree: int
    avg_increase: float
    worst_increase: float


def run_fig1(
    soc: Optional[SoCConfig] = None,
    trials: int = 300,
    seed: int = 0,
    tiles_per_app: int = 2,
    networks: Sequence[str] = FIG1_NETWORKS,
) -> List[Fig1Row]:
    """Run the motivation study and return all Figure 1 bars."""
    if soc is None:
        soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    rng = random.Random(seed)
    qos = QosModel(soc)
    iso = {
        n: qos.isolated_latency(build_model(n), mem, tiles_per_app)
        for n in networks
    }
    # Co-located applications also pressure the shared L2's capacity:
    # Algorithm 1's residency checks are evaluated with the trial's
    # sharer count, so inputs and data tiles that fit when alone spill
    # to DRAM when co-located.
    costs_by_sharers = {
        d: {
            n: build_network_cost(
                build_model(n), soc, mem, num_sharers=d
            )
            for n in networks
        }
        for d in range(1, len(networks) + 1)
    }

    # slowdowns[network][degree] -> list of normalized latencies.
    slowdowns: Dict[str, Dict[int, List[float]]] = {
        n: {d: [] for d in range(1, len(networks) + 1)} for n in networks
    }

    for trial in range(trials):
        subject = networks[trial % len(networks)]
        degree = rng.randint(1, len(networks))
        others = [n for n in networks if n != subject]
        rng.shuffle(others)
        co_runners = others[: degree - 1]

        # Co-runners dispatch at random offsets in a window around the
        # subject — before it as well as after — so any of a
        # co-runner's phases (e.g. AlexNet's memory-bound FC layers)
        # can overlap any part of the subject's run (the paper's
        # "different starting times"; SqueezeNet's >3x worst case
        # happens when its short run lands entirely inside a co-
        # runner's memory-intensive phase).
        costs = costs_by_sharers[degree]
        lead = max((iso[c] for c in co_runners), default=0.0)
        tasks = [_task("subject", subject, lead, costs[subject], iso)]
        for j, co in enumerate(co_runners):
            offset = rng.uniform(0.0, lead + iso[subject])
            tasks.append(_task(f"co{j}", co, offset, costs[co], iso))

        result = run_simulation(
            soc, tasks, StaticPartitionPolicy(tiles_per_slot=tiles_per_app),
            mem=mem,
        )
        subject_result = result.result_for("subject")
        slowdowns[subject][degree].append(
            subject_result.runtime / iso[subject]
        )

    rows: List[Fig1Row] = []
    for network in networks:
        for degree in range(1, len(networks) + 1):
            values = slowdowns[network][degree]
            if not values:
                continue
            rows.append(
                Fig1Row(
                    network=network,
                    degree=degree,
                    avg_increase=sum(values) / len(values),
                    worst_increase=max(values),
                )
            )
    return rows


def _task(task_id, network_name, dispatch, cost, iso) -> Task:
    return Task(
        task_id=task_id,
        network_name=network_name,
        cost=cost,
        dispatch_cycle=dispatch,
        priority=5,
        qos_target_cycles=1.0e18,  # the motivation study has no SLA
        isolated_cycles=iso[network_name],
    )


def format_fig1(rows: Sequence[Fig1Row]) -> str:
    """Render Figure 1 as an aligned text table."""
    lines = [
        "Figure 1: latency increase under co-location "
        "(normalized to isolated)",
        f"{'network':<12s}{'x':>3s}{'avg':>8s}{'worst':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r.network:<12s}{r.degree:>3d}"
            f"{r.avg_increase:>8.2f}{r.worst_increase:>8.2f}"
        )
    return "\n".join(lines)
