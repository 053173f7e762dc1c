"""The benchmark suite's policy variants must change what they claim to.

An ablation bench builds its variants by subclassing a policy and
overriding stages of its decision round.  When the base class renames
or drops a stage, the override becomes dead code and the "ablation"
silently runs the full policy.  These tests catch that: every
attribute a bench's policy subclass defines must already exist on its
base class, and the MoCA component ablation must actually remove the
component it names.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.config import DEFAULT_SOC
from repro.core.policy import MoCAPolicy
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import workload_set
from repro.sim.engine import run_simulation
from repro.sim.policy import Policy
from repro.sim.qos import QosLevel, QosModel
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(path):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_policy_classes():
    classes = []
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        module = _load(path)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, Policy)
                and obj.__module__ == module.__name__
            ):
                classes.append(obj)
    return classes


BENCH_POLICIES = _bench_policy_classes()


def test_bench_policy_variants_found():
    names = {cls.__name__ for cls in BENCH_POLICIES}
    assert {"_NoRegulationMoCA", "_FcfsMoCA",
            "_FreeMigrationPlanaria"} <= names


@pytest.mark.parametrize(
    "cls", BENCH_POLICIES, ids=lambda cls: cls.__name__
)
def test_overrides_exist_on_base(cls):
    base = cls.__mro__[1]
    dead = sorted(
        name for name in vars(cls)
        if not (name.startswith("__") and name.endswith("__"))
        and not hasattr(base, name)
    )
    assert dead == [], (
        f"{cls.__name__} defines {dead}, which {base.__name__} does "
        f"not have: the override is dead code"
    )


def test_no_regulation_variant_sets_no_caps():
    ablation = _load(BENCH_DIR / "bench_ablation_moca_components.py")
    soc = DEFAULT_SOC
    mem = MemoryHierarchy.from_soc(soc)
    gen = WorkloadGenerator(soc, workload_set("C"), mem,
                            QosModel(soc, slack_factor=2.0))
    tasks = gen.generate(WorkloadConfig(
        num_tasks=20, qos_level=QosLevel.HARD, load_factor=0.7, seed=1,
    ))

    def reconfigs(policy):
        result = run_simulation(soc, tasks, policy, mem=mem)
        return sum(r.bw_reconfigs for r in result.results)

    assert reconfigs(MoCAPolicy()) > 0
    assert reconfigs(ablation._NoRegulationMoCA()) == 0
