"""Tests for the streaming results pipeline: the executor's cell
stream (``run_supervised``), the SweepResults accumulator
(completion-order independence), the cell manifest, and the
warm-worker cache telemetry."""

import json
import random

import pytest

from repro.experiments.parallel import ParallelRunner
from repro.experiments.results import (
    CellResult,
    SweepResults,
    cell_manifest,
)
from repro.experiments.runner import (
    ScenarioSpec,
    default_policies,
)
from repro.scenarios import ScenarioSpec as RegistrySpec
from repro.sim.qos import QosLevel

SPECS = [
    ScenarioSpec(
        workload_set="A", qos_level=QosLevel.MEDIUM,
        num_tasks=12, seeds=(1, 2),
    ),
    ScenarioSpec(
        workload_set="A", qos_level=QosLevel.LIGHT,
        num_tasks=12, seeds=(3,),
    ),
]


@pytest.fixture(scope="module")
def serial_matrix(serial_reference):
    return serial_reference(SPECS)


@pytest.fixture(scope="module")
def streamed_cells():
    runner = ParallelRunner(workers=2)
    return runner.run_supervised(SPECS).cells(), runner


class TestIterCells:
    """The cell stream of ``run_supervised`` (the class keeps the name
    of the API it replaced, so test ids stay stable)."""

    def test_yields_every_cell_exactly_once(self, streamed_cells):
        cells, _ = streamed_cells
        expected = len(SPECS[0].seeds + SPECS[1].seeds) * len(
            default_policies()
        )
        assert len(cells) == expected
        assert sorted(c.index for c in cells) == list(range(expected))

    def test_cells_carry_identity_and_telemetry(self, streamed_cells):
        cells, _ = streamed_cells
        for cell in cells:
            assert cell.label == SPECS[cell.spec_index].label
            assert cell.seed in SPECS[cell.spec_index].seeds
            assert cell.policy in default_policies()
            assert cell.seconds >= 0
            assert cell.worker_pid > 0
            assert cell.cost_cache_hits >= 0

    def test_aggregate_identical_to_serial(
        self, streamed_cells, serial_matrix
    ):
        """ISSUE tentpole: streaming aggregation must be bit-identical
        to the serial path on the same specs."""
        cells, _ = streamed_cells
        acc = SweepResults(SPECS, list(default_policies()))
        for cell in cells:
            acc.add(cell)
        matrix = acc.matrix()
        assert set(matrix) == set(serial_matrix)
        for label, cell in serial_matrix.items():
            for policy, result in cell.items():
                assert (
                    matrix[label][policy].per_seed == result.per_seed
                ), (label, policy)

    def test_warm_workers_pay_no_cost_cache_misses(self, streamed_cells):
        """ISSUE tentpole: the pool initializer pre-warms each worker,
        so pool-mode cells run at a 100 % cost-cache hit rate."""
        cells, runner = streamed_cells
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable; warm path not exercised")
        assert sum(c.cost_cache_misses for c in cells) == 0
        assert sum(c.cost_cache_hits for c in cells) > 0

    def test_run_matrix_records_cells_in_submission_order(
        self, serial_matrix
    ):
        acc = ParallelRunner(workers=2).run_supervised(SPECS)
        matrix = acc.matrix()
        cells = acc.cells()
        assert [c.index for c in cells] == list(range(len(cells)))
        for label, cell in serial_matrix.items():
            for policy, result in cell.items():
                assert matrix[label][policy].per_seed == result.per_seed


class TestSweepResultsOrderIndependence:
    def _cells(self):
        runner = ParallelRunner(workers=1)
        return runner.run_supervised(SPECS).cells()

    def test_shuffled_completion_order_same_matrix(self, serial_matrix):
        """ISSUE satellite: feeding the stream in any completion order
        must produce the identical aggregate."""
        cells = self._cells()
        for trial in range(4):
            shuffled = cells[:]
            random.Random(trial).shuffle(shuffled)
            acc = SweepResults(SPECS, list(default_policies()))
            for cell in shuffled:
                acc.add(cell)
            matrix = acc.matrix()
            for label, cell in serial_matrix.items():
                for policy, result in cell.items():
                    assert (
                        matrix[label][policy].per_seed == result.per_seed
                    )

    def test_incomplete_matrix_raises(self):
        cells = self._cells()
        acc = SweepResults(SPECS, list(default_policies()))
        for cell in cells[:-1]:
            acc.add(cell)
        assert not acc.complete
        with pytest.raises(ValueError, match="incomplete"):
            acc.matrix()

    def test_duplicate_cell_rejected(self):
        cells = self._cells()
        acc = SweepResults(SPECS, list(default_policies()))
        acc.add(cells[0])
        with pytest.raises(ValueError, match="duplicate"):
            acc.add(cells[0])

    def test_mismatched_cell_rejected(self):
        cells = self._cells()
        acc = SweepResults(SPECS, list(default_policies()))
        imposter = CellResult(
            index=cells[0].index,
            spec_index=cells[0].spec_index,
            label=cells[0].label,
            policy="not-a-policy",
            seed=cells[0].seed,
            summary=cells[0].summary,
            seconds=0.0,
        )
        with pytest.raises(ValueError, match="expected"):
            acc.add(imposter)

    def test_duplicate_labels_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate scenario label"):
            SweepResults([SPECS[0], SPECS[0]], list(default_policies()))

    def test_cache_stats_aggregate(self):
        acc = SweepResults(SPECS, list(default_policies()))
        for cell in self._cells():
            acc.add(cell)
        stats = acc.cache_stats()
        assert set(stats) == {
            "cost_cache_hits", "cost_cache_misses",
            "predict_memo_hits", "predict_memo_misses",
        }
        assert stats["cost_cache_hits"] + stats["cost_cache_misses"] > 0
        assert stats["predict_memo_hits"] == 0
        assert stats["predict_memo_misses"] == 0


class TestCellManifest:
    def test_manifest_is_json_serialisable_and_complete(self):
        manifest = cell_manifest(SPECS)
        text = json.dumps(manifest, sort_keys=True)
        back = json.loads(text)
        expected_cells = len(SPECS[0].seeds + SPECS[1].seeds) * len(
            default_policies()
        )
        assert len(back["cells"]) == expected_cells
        assert [c["index"] for c in back["cells"]] == list(
            range(expected_cells)
        )
        assert back["policies"] == list(default_policies())
        labels = [s["label"] for s in back["scenarios"]]
        assert labels == [spec.label for spec in SPECS]

    def test_manifest_specs_round_trip(self):
        manifest = cell_manifest(SPECS)
        for entry, spec in zip(manifest["scenarios"], SPECS):
            rebuilt = RegistrySpec.from_dict(entry["spec"])
            assert rebuilt == spec

    def test_manifest_accepts_registry_names(self):
        manifest = cell_manifest(["bursty-mixed"])
        assert manifest["scenarios"][0]["label"] == "bursty-mixed"
        assert all(
            c["scenario"] == "bursty-mixed" for c in manifest["cells"]
        )

    def test_spec_to_dict_round_trips_rich_fields(self):
        spec = RegistrySpec(
            workload_set="A",
            num_tasks=8,
            seeds=(1, 2),
            arrival="bursty",
            model_mix=(("kws", 0.6), ("squeezenet", 0.4)),
            priority_weights=tuple(float(i + 1) for i in range(12)),
        )
        assert RegistrySpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="unknown"):
            RegistrySpec.from_dict({"not_a_field": 1})


class TestEngineCacheCounters:
    """Per-run cache attribution through ``track_cache_deltas``
    frames, the frame each sweep cell's counters come from.  A framed
    run builds its tasks (one network-cost cache probe each, as a
    cell's workload generation does) and simulates them."""

    NUM_TASKS = 4

    def _tasks(self, task_factory):
        return [
            task_factory(task_id=f"t{i}", dispatch=float(i) * 10.0)
            for i in range(self.NUM_TASKS)
        ]

    def _framed_run(self, task_factory, tasks=None):
        from repro.config import DEFAULT_SOC
        from repro.core.latency import track_cache_deltas
        from repro.core.policy import MoCAPolicy
        from repro.sim.engine import Simulator
        from repro.sim.reference import run_reference

        with track_cache_deltas() as delta:
            if tasks is None:
                tasks = self._tasks(task_factory)
            run_reference(Simulator(DEFAULT_SOC, tasks, MoCAPolicy()))
        return delta

    def test_interleaved_runs_do_not_double_count(self, task_factory):
        """Each frame counts the probes made inside it exactly once:
        tasks built before a frame opened are not charged to it."""
        self._framed_run(task_factory)  # warm the cost cache
        reference = self._framed_run(task_factory)
        assert reference == {
            "cost_cache_hits": self.NUM_TASKS, "cost_cache_misses": 0,
        }
        prebuilt = self._tasks(task_factory)
        assert self._framed_run(task_factory) == reference
        assert self._framed_run(task_factory, prebuilt) == dict.fromkeys(
            reference, 0
        )

    def test_track_cache_deltas_nests_without_sibling_leakage(
        self, task_factory
    ):
        """An outer frame (a sweep cell) contains its inner run's
        probes; a sibling frame opened afterwards sees none of them."""
        from repro.core.latency import track_cache_deltas

        with track_cache_deltas() as outer:
            inner = self._framed_run(task_factory)
        assert inner["cost_cache_hits"] + inner["cost_cache_misses"] > 0
        for name, count in inner.items():
            assert outer[name] >= count
        with track_cache_deltas() as sibling:
            pass
        assert all(v == 0 for v in sibling.values())

    def test_nested_equal_frames_close_by_identity(self):
        """Regression (review finding): two nested frames must each
        close their own frame on exit — equality-based removal used to
        pop the wrong frame when their contents compared equal."""
        from repro.core import latency
        from repro.core.latency import (
            CACHE_COUNTER_FIELDS,
            track_cache_deltas,
        )

        probe = CACHE_COUNTER_FIELDS[0]
        with track_cache_deltas() as outer:
            with track_cache_deltas() as inner:
                latency._CACHE_STATS[probe] += 1  # what a probe site does
            latency._CACHE_STATS[probe] += 1  # belongs to outer only
        assert inner[probe] == 1
        assert outer[probe] == 2

    def test_reset_mid_frame_keeps_delta_continuous(self):
        """reset_cache_stats() inside an open frame re-bases it: the
        probes made before the reset stay counted, nothing negative."""
        from repro.core import latency
        from repro.core.latency import (
            CACHE_COUNTER_FIELDS,
            reset_cache_stats,
            track_cache_deltas,
        )

        probe = CACHE_COUNTER_FIELDS[0]
        with track_cache_deltas() as frame:
            latency._CACHE_STATS[probe] += 1
            reset_cache_stats()
            latency._CACHE_STATS[probe] += 1
        assert frame[probe] == 2
        assert all(v >= 0 for v in frame.values())


class TestCellFailure:
    """CellFailure records (ISSUE tentpole): quarantine bookkeeping on
    the accumulator and the serialization round-trip."""

    @staticmethod
    def _failure(index=0, **overrides):
        from repro.experiments.results import CellFailure

        acc = SweepResults(SPECS, list(default_policies()))
        spec_index, policy, seed = acc._slots[index]
        base = dict(
            index=index, spec_index=spec_index,
            label=SPECS[spec_index].label, policy=policy, seed=seed,
            kind="error", attempts=1, message="boom",
        )
        base.update(overrides)
        return CellFailure(**base)

    def test_invalid_kind_and_attempts_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            self._failure(kind="melted")
        with pytest.raises(ValueError, match="attempts"):
            self._failure(attempts=0)

    def test_dict_round_trip(self):
        from repro.experiments.results import (
            failure_from_dict,
            failure_to_dict,
        )

        failure = self._failure(index=2, kind="timeout", attempts=3)
        payload = json.loads(json.dumps(failure_to_dict(failure)))
        assert failure_from_dict(payload) == failure

    def test_add_failure_validates_like_add(self):
        import dataclasses

        acc = SweepResults(SPECS, list(default_policies()))
        outside = dataclasses.replace(self._failure(index=0), index=10**6)
        with pytest.raises(ValueError, match="outside sweep"):
            acc.add_failure(outside)
        with pytest.raises(ValueError, match="expected"):
            acc.add_failure(self._failure(index=0, seed=999))

    def test_degraded_flag_and_missing_semantics(self):
        acc = SweepResults(SPECS, list(default_policies()))
        assert not acc.degraded
        failure = self._failure(index=1)
        acc.add_failure(failure)
        assert acc.degraded
        assert acc.failed_indices() == [1]
        # Quarantined cells count as missing: resume re-runs them.
        assert 1 in acc.missing_indices()

    def test_success_supersedes_failure(self):
        runner = ParallelRunner(workers=1)
        cells = runner.run_supervised(SPECS).cells()
        acc = SweepResults(SPECS, list(default_policies()))
        acc.add_failure(self._failure(index=0))
        acc.add(next(c for c in cells if c.index == 0))
        assert acc.failed_indices() == []
        # ... and a stale failure arriving after the result is dropped.
        acc.add_failure(self._failure(index=0))
        assert acc.failed_indices() == []
        assert acc.has_cell(0)

    def test_incomplete_matrix_error_counts_quarantined(self):
        acc = SweepResults(SPECS, list(default_policies()))
        acc.add_failure(self._failure(index=1))
        with pytest.raises(ValueError, match="quarantined"):
            acc.matrix()
