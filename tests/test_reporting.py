"""Tests for repro.reporting (charts and exports)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import ScenarioSpec, run_matrix, run_scenario
from repro.reporting import (
    ascii_bar_chart,
    results_from_csv,
    results_to_csv,
    sweep_from_csv,
    sweep_from_json,
    sweep_to_csv,
    sweep_to_json,
    timeline_chart,
)
from repro.sim.job import TaskResult
from repro.sim.trace import Trace, TraceEvent

#: The fixed matrix the sweep-export goldens pin (see
#: tests/goldens/sweep_exports.json and scripts/bless_goldens.py).
GOLDEN_EXPORT_SPECS = [
    ScenarioSpec(workload_set="A", num_tasks=16, seeds=(1, 2)),
]

GOLDEN_EXPORT_PATH = (
    Path(__file__).parent / "goldens" / "sweep_exports.json"
)

RE_BLESS = "PYTHONPATH=src python scripts/bless_goldens.py"


@pytest.fixture(scope="module")
def golden_matrix():
    return run_matrix(GOLDEN_EXPORT_SPECS)


def _result(task_id="t0"):
    return TaskResult(
        task_id=task_id, network_name="kws", priority=3,
        dispatch_cycle=0.0, started_at=10.0, finished_at=110.0,
        qos_target_cycles=200.0, isolated_cycles=50.0, preemptions=1,
        tile_repartitions=2, bw_reconfigs=3, stall_cycles=4.5,
    )


class TestAsciiBars:
    def test_renders_all_labels(self):
        chart = ascii_bar_chart({"a": 1.0, "bb": 0.5}, title="demo")
        assert "demo" in chart
        assert "a " in chart and "bb" in chart

    def test_bar_lengths_proportional(self):
        chart = ascii_bar_chart({"full": 1.0, "half": 0.5}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ascii_bar_chart({})

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            ascii_bar_chart({"x": -1.0})

    def test_zero_values_ok(self):
        chart = ascii_bar_chart({"x": 0.0})
        assert "0.000" in chart


class TestSweepExports:
    def test_json_round_trip_exact(self, golden_matrix):
        """ISSUE satellite: sweep_to_json -> sweep_from_json rebuilds
        every spec and per-seed summary exactly."""
        text = sweep_to_json(golden_matrix)
        back = sweep_from_json(text)
        assert set(back) == set(golden_matrix)
        for label, cell in golden_matrix.items():
            assert set(back[label]) == set(cell)
            for policy, result in cell.items():
                assert back[label][policy].per_seed == result.per_seed
                assert back[label][policy].spec == result.spec

    def test_csv_round_trip_exact(self, golden_matrix):
        """The CSV is self-describing: specs and per-seed summaries
        rebuild exactly, like the JSON export."""
        text = sweep_to_csv(golden_matrix)
        back = sweep_from_csv(text)
        assert set(back) == set(golden_matrix)
        for label, cell in golden_matrix.items():
            for policy, result in cell.items():
                assert back[label][policy].per_seed == result.per_seed
                assert back[label][policy].spec == result.spec

    def test_csv_round_trip_hostile_names(self):
        """ISSUE satellite: scenario labels carrying the CSV
        delimiter, quotes or newlines must survive the text
        round-trip (the csv module quotes them) instead of
        corrupting rows."""
        hostile = 'evil,label "quoted"\nnewline'
        spec = ScenarioSpec(
            workload_set="A", num_tasks=8, seeds=(1,), name=hostile,
            priority_weights=tuple(float(i + 1) for i in range(12)),
            model_mix=(("kws", 0.5), ("squeezenet", 0.5)),
        )
        matrix = {spec.label: run_scenario(spec)}
        back = sweep_from_csv(sweep_to_csv(matrix))
        assert set(back) == {hostile}
        for policy, result in matrix[hostile].items():
            assert back[hostile][policy].per_seed == result.per_seed
            assert back[hostile][policy].spec == spec

    def test_csv_without_spec_column_rejected(self):
        with pytest.raises(ValueError, match="spec"):
            sweep_from_csv("scenario,policy,seed\na,moca,1\n")

    def test_csv_missing_metric_column_rejected(self, golden_matrix):
        """Review finding: a dropped metric column must refuse with a
        ValueError naming it, not leak a KeyError."""
        text = sweep_to_csv(golden_matrix)
        header, rest = text.split("\r\n", 1)
        mangled = header.replace("sla_rate,", "") + "\r\n" + rest
        with pytest.raises(ValueError, match="sla_rate"):
            sweep_from_csv(mangled)

    def test_csv_row_cut_mid_line_rejected(self, golden_matrix):
        """A file truncated mid-row reads as truncation, not a
        float(None) TypeError."""
        text = sweep_to_csv(golden_matrix)
        lines = text.split("\r\n")
        cut = "\r\n".join(lines[:2]) + "\r\n" + lines[2][:40] + "\r\n"
        with pytest.raises(ValueError):
            sweep_from_csv(cut)

    def test_csv_scenario_column_must_match_spec_label(
        self, golden_matrix
    ):
        """A hand-edited scenario column that disagrees with the
        embedded spec's label must be refused, not rebuilt into an
        internally inconsistent matrix."""
        text = sweep_to_csv(golden_matrix)
        label = next(iter(golden_matrix))
        with pytest.raises(ValueError, match="does not match"):
            sweep_from_csv(text.replace(f"\r\n{label},", "\r\nrenamed,"))

    def test_csv_truncated_rows_rejected(self, golden_matrix):
        """Dropping a seed row must fail the seeds consistency check,
        not silently rebuild a shorter per_seed tuple."""
        lines = sweep_to_csv(golden_matrix).splitlines(keepends=True)
        with pytest.raises(ValueError, match="seed"):
            sweep_from_csv("".join(lines[:-1]))

    def test_json_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="repro-sweep"):
            sweep_from_json(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="repro-sweep"):
            sweep_from_json("[1, 2]")  # valid JSON, wrong shape

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            sweep_to_json({})
        with pytest.raises(ValueError):
            sweep_to_csv({})

    def test_exports_deterministic(self, golden_matrix):
        assert sweep_to_json(golden_matrix) == sweep_to_json(golden_matrix)
        assert sweep_to_csv(golden_matrix) == sweep_to_csv(golden_matrix)

    def test_export_files_match_goldens(self, golden_matrix):
        """ISSUE satellite: golden fingerprints for the new export
        files — a refactor that perturbs exporter bytes (or the
        underlying metrics) fails here.  Re-bless after intentional
        changes with scripts/bless_goldens.py."""
        assert GOLDEN_EXPORT_PATH.exists(), (
            f"missing golden file {GOLDEN_EXPORT_PATH}; "
            f"create it with: {RE_BLESS}"
        )
        golden = json.loads(GOLDEN_EXPORT_PATH.read_text())
        actual = {
            "json": hashlib.sha256(
                sweep_to_json(golden_matrix).encode()
            ).hexdigest()[:16],
            "csv": hashlib.sha256(
                sweep_to_csv(golden_matrix).encode()
            ).hexdigest()[:16],
        }
        assert actual == golden["digests"], (
            f"sweep export bytes changed; if intentional, re-bless "
            f"with: {RE_BLESS}"
        )


class TestResultsCsv:
    def test_round_trip(self):
        original = [_result("a"), _result("b")]
        text = results_to_csv(original)
        restored = results_from_csv(text)
        assert len(restored) == 2
        for orig, back in zip(original, restored):
            assert back.task_id == orig.task_id
            assert back.latency == pytest.approx(orig.latency)
            assert back.met_sla == orig.met_sla
            assert back.bw_reconfigs == orig.bw_reconfigs

    def test_derived_columns_present(self):
        text = results_to_csv([_result()])
        header = text.splitlines()[0]
        for col in ("latency", "runtime", "met_sla", "slowdown"):
            assert col in header


class TestTimelineChart:
    def _trace(self):
        trace = Trace()
        trace.log(0.0, TraceEvent.DISPATCH, "a")
        trace.log(10.0, TraceEvent.START, "a")
        trace.log(100.0, TraceEvent.FINISH, "a")
        trace.log(5.0, TraceEvent.DISPATCH, "b")
        trace.log(50.0, TraceEvent.START, "b")
        trace.log(200.0, TraceEvent.FINISH, "b")
        return trace

    def test_renders_rows(self):
        text = timeline_chart(self._trace())
        assert "a" in text and "b" in text
        assert "F" in text and "=" in text

    def test_wait_marks_present(self):
        text = timeline_chart(self._trace())
        assert "." in text

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            timeline_chart(Trace())

    def test_max_jobs_truncates(self):
        trace = Trace()
        for i in range(30):
            trace.log(float(i), TraceEvent.DISPATCH, f"j{i:02d}")
            trace.log(float(i + 1), TraceEvent.START, f"j{i:02d}")
            trace.log(float(i + 50), TraceEvent.FINISH, f"j{i:02d}")
        text = timeline_chart(trace, max_jobs=5)
        assert "more jobs not shown" in text

    def test_from_real_simulation(self, soc, mem, task_factory):
        from repro.baselines.static_partition import StaticPartitionPolicy
        from repro.sim.engine import Simulator

        tasks = [task_factory(task_id=f"t{i}", network="kws",
                              dispatch=i * 1e5) for i in range(5)]
        policy = StaticPartitionPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem, trace=True)
        sim.run()
        text = timeline_chart(sim.trace)
        assert text.count("F") >= 5
