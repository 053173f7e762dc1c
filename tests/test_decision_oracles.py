"""Oracle tests pinning the fast decision and generation paths to the
plain expressions they replace.

Each reference below is the straightforward form of a hot path:
Prema's full-queue ``max`` over the token key, Planaria's fresh
remaining-work prediction and full admission sort, and the workload
generator's per-task cost / isolated-latency / QoS-target derivation.
The references live only here; ``src/`` keeps the single fast path.
"""

import random
from bisect import insort
from types import SimpleNamespace

import pytest

from repro.baselines.planaria import PlanariaPolicy
from repro.baselines.prema import PremaPolicy
from repro.config import DEFAULT_SOC
from repro.core.latency import build_network_cost
from repro.models.zoo import workload_set
from repro.sim.engine import _READY_KEY, run_simulation
from repro.sim.job import Job, Task
from repro.sim.qos import QosLevel
from repro.sim.tracefile import dump_tasks, load_dispatch_cycles
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

# ---------------------------------------------------------------------------
# Prema: per-priority heads vs the full-queue max
# ---------------------------------------------------------------------------


def reference_best_waiting(policy, ready, now):
    if not ready:
        return None
    return max(
        ready,
        key=lambda j: (
            policy.tokens(j, now),
            j.task.priority,
            -j.task.dispatch_cycle,
            j.job_id,
        ),
    )


def _random_ready(rng, task_factory, n):
    """A ready queue kept the engine's way (insort on the ready key),
    with many equal-dispatch ties; some jobs are re-inserted after a
    simulated preemption."""
    dispatches = [float(rng.randrange(6)) * 1000.0 for _ in range(4)]
    ready = []
    for i in range(n):
        job = Job(task=task_factory(
            task_id=f"j{rng.randrange(10_000):05d}-{i}",
            dispatch=rng.choice(dispatches),
            priority=rng.randrange(12),
        ))
        insort(ready, job, key=_READY_KEY)
    for _ in range(rng.randrange(3)):
        if ready:
            job = ready.pop(rng.randrange(len(ready)))
            job.preemptions += 1
            insort(ready, job, key=_READY_KEY)
    return ready, dispatches


class TestPremaBestWaiting:
    def test_matches_full_max_on_random_queues(self, task_factory):
        rng = random.Random(7)
        policy = PremaPolicy()
        for _ in range(300):
            ready, dispatches = _random_ready(
                rng, task_factory, rng.randrange(0, 25)
            )
            # now == a dispatch cycle (zero-wait clamp), before every
            # dispatch (all tokens clamp to 0) and well past them.
            for now in dispatches + [-1.0, 0.0, 1e7]:
                sim = SimpleNamespace(ready=ready, now=now)
                expected = reference_best_waiting(policy, ready, now)
                assert policy._best_waiting(sim) is expected

    def test_equal_dispatch_tie_goes_to_largest_id(self, task_factory):
        policy = PremaPolicy()
        ready = []
        for tid in ("b", "c", "a"):
            insort(
                ready,
                Job(task=task_factory(task_id=tid, dispatch=5.0,
                                      priority=3)),
                key=_READY_KEY,
            )
        sim = SimpleNamespace(ready=ready, now=5.0)
        assert policy._best_waiting(sim).job_id == "c"

    def test_matches_full_max_through_a_preempting_run(
        self, soc, mem, task_factory
    ):
        calls = []

        class Checked(PremaPolicy):
            def _best_waiting(self, sim):
                got = super()._best_waiting(sim)
                assert got is reference_best_waiting(
                    self, sim.ready, sim.now
                )
                calls.append(got)
                return got

        rng = random.Random(3)
        # Long low-priority jobs first (tied dispatch), then short
        # urgent ones that overtake them at block checkpoints.
        tasks = [
            task_factory(task_id=f"long{i}", network="yolov2",
                         priority=0, dispatch=0.0)
            for i in range(3)
        ] + [
            task_factory(
                task_id=f"t{i:02d}",
                network=rng.choice(["kws", "squeezenet"]),
                dispatch=float(rng.randrange(1, 8)) * 1e5,
                priority=rng.randrange(12),
            )
            for i in range(20)
        ]
        result = run_simulation(soc, tasks, Checked(), mem=mem)
        assert len(result.results) == len(tasks)
        assert any(c is not None for c in calls)
        assert sum(r.preemptions for r in result.results) > 0


# ---------------------------------------------------------------------------
# Planaria: cached urgency buckets vs a fresh prediction
# ---------------------------------------------------------------------------


def fresh_remaining(soc, mem, job, tiles):
    """Predicted cycles of the job's remaining blocks, summed right to
    left from 0.0 straight off ``BlockCost.predict``."""
    remain = 0.0
    for block in reversed(job.task.cost.blocks[job.block_idx:]):
        remain = remain + block.predict(
            tiles, mem.dram_bandwidth, mem.l2_bandwidth, soc.overlap_f
        )
    return remain


def reference_bucket(soc, mem, job, now, min_tiles):
    remain = fresh_remaining(soc, mem, job, max(job.tiles, min_tiles))
    slack = job.task.deadline - now
    if slack <= 0 or remain <= 0:
        return 4.0
    ratio = slack / remain
    if ratio < 1.0:
        return 4.0
    if ratio < 2.0:
        return 2.0
    return 1.0


def reference_admission_order(policy, sim):
    slots = policy.max_concurrent - len(sim.running)
    if slots <= 0 or not sim.ready:
        return []
    return sorted(
        sim.ready,
        key=lambda j: (
            -(j.task.priority + 1), j.task.dispatch_cycle, j.job_id
        ),
    )[:slots]


class TestPlanariaCachedBuckets:
    def test_cached_bucket_tracks_block_and_tile_changes(
        self, soc, mem, task_factory
    ):
        rng = random.Random(11)
        policy = PlanariaPolicy()
        jobs = [
            Job(task=task_factory(task_id=f"p{i}", network=net,
                                  qos_slack=rng.choice([0.5, 1.5, 4.0])))
            for i, net in enumerate(["kws", "alexnet", "resnet50"])
        ]
        for job in jobs:
            job.table = job.task.cost.runtime_table(
                mem.dram_bandwidth, mem.l2_bandwidth, soc.overlap_f,
                soc.num_tiles,
            )
        for _ in range(400):
            job = rng.choice(jobs)
            n_blocks = len(job.task.cost.blocks)
            move = rng.randrange(3)
            if move == 0:
                job.block_idx = rng.randrange(n_blocks + 1)
            elif move == 1:
                job.tiles = rng.randrange(soc.num_tiles + 1)
            now = rng.uniform(0.0, 2.0 * job.task.deadline)
            assert policy._urgency_bucket(job, now) == reference_bucket(
                soc, mem, job, now, policy.min_tiles
            )

    def test_matches_fresh_prediction_through_a_run(
        self, soc, mem, task_factory
    ):
        checks = []

        class Checked(PlanariaPolicy):
            def _urgency_bucket(self, job, now):
                got = super()._urgency_bucket(job, now)
                assert got == reference_bucket(
                    soc, mem, job, now, self.min_tiles
                )
                checks.append(got)
                return got

            def _admission_order(self, sim):
                got = super()._admission_order(sim)
                assert got == reference_admission_order(self, sim)
                return got

        rng = random.Random(5)
        tasks = [
            task_factory(
                task_id=f"t{i:02d}",
                network=rng.choice(["kws", "alexnet", "squeezenet"]),
                dispatch=float(rng.randrange(6)) * 3e5,
                priority=rng.randrange(12),
                qos_slack=rng.choice([0.5, 1.5, 3.0]),
            )
            for i in range(20)
        ]
        result = run_simulation(soc, tasks, Checked(), mem=mem)
        assert len(result.results) == len(tasks)
        # Every urgency bucket was exercised.
        assert {1.0, 2.0, 4.0} <= set(checks)


# ---------------------------------------------------------------------------
# Workload generation: once-per-network derivation vs per task
# ---------------------------------------------------------------------------


def reference_generate(gen, config):
    rng = random.Random(config.seed)
    pool, mix_weights = gen._model_pool(config)
    trace_cycles = None
    if config.arrival == "trace":
        window = 0.0
        trace_cycles = load_dispatch_cycles(config.trace_text)
    else:
        window = gen.arrival_window(config)
    tasks = []
    for i in range(config.num_tasks):
        if mix_weights is None:
            network = rng.choice(pool)
        else:
            network = rng.choices(pool, weights=mix_weights, k=1)[0]
        dispatch = gen._sample_dispatch(rng, config, window, trace_cycles, i)
        priority = gen.sample_priority(rng, config.priority_weights)
        cost = build_network_cost(network, gen.soc, gen.mem)
        tasks.append(Task(
            task_id=f"t{i:04d}",
            network_name=network.name,
            cost=cost,
            dispatch_cycle=dispatch,
            priority=priority,
            qos_target_cycles=gen.qos.target(
                network, config.qos_level, gen.mem
            ),
            isolated_cycles=gen.qos.isolated_latency_from_cost(
                cost, gen.mem
            ),
        ))
    tasks.sort(key=lambda t: (t.dispatch_cycle, t.task_id))
    return tasks


@pytest.fixture(scope="module")
def generator():
    return WorkloadGenerator(DEFAULT_SOC, workload_set("C"))


def _trace_text(generator):
    return dump_tasks(
        generator.generate(WorkloadConfig(num_tasks=7, seed=99))
    )


class TestGenerateOracle:
    @pytest.mark.parametrize("arrival", [
        "uniform", "bursty", "diurnal", "trace",
    ])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_every_arrival_process(self, generator, arrival, seed):
        extra = {}
        if arrival == "trace":
            extra["trace_text"] = _trace_text(generator)
        config = WorkloadConfig(
            num_tasks=40, seed=seed, arrival=arrival,
            qos_level=QosLevel.HARD, **extra,
        )
        assert generator.generate(config) == reference_generate(
            generator, config
        )

    @pytest.mark.parametrize("seed", [2, 3])
    def test_model_mix_override(self, generator, seed):
        names = [net.name for net in generator.networks]
        config = WorkloadConfig(
            num_tasks=50, seed=seed,
            model_mix=((names[0], 0.6), (names[-1], 0.4)),
        )
        got = generator.generate(config)
        assert got == reference_generate(generator, config)
        assert {t.network_name for t in got} == {names[0], names[-1]}

    @pytest.mark.parametrize("seed", [4, 5])
    def test_priority_weights_override(self, generator, seed):
        weights = (0.0,) * 6 + (1.0, 0.0, 3.5, 0.0, 0.25, 2.0)
        config = WorkloadConfig(
            num_tasks=50, seed=seed, priority_weights=weights,
            arrival="bursty", qos_level=QosLevel.LIGHT,
        )
        got = generator.generate(config)
        assert got == reference_generate(generator, config)
        assert {t.priority for t in got} <= {6, 8, 10, 11}
