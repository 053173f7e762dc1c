"""The benchmark's own tests.

Fast tests run with the repository's test suite; the end-to-end runs
of ``run.py`` are marked slow::

    python -m pytest perfbench/tests -m slow
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_specs(seed: int = 0):
    """The first three small-cells scenarios (36 cells)."""
    return workloads.build_specs("small-cells-2w", seed)[:3]


def fingerprint(specs):
    from repro.experiments.golden import matrix_fingerprint
    from repro.experiments.parallel import ParallelRunner

    return matrix_fingerprint(
        ParallelRunner(workers=1).run_supervised(specs).matrix()
    )


class TestConfig:
    def test_metric_names_and_units(self):
        config = bench_config()
        names = [
            m["name"] for m in config["end_to_end"] + config["per_layer"]
        ]
        assert len(names) == len(set(names))
        for metric in config["end_to_end"] + config["per_layer"]:
            assert NAME.match(metric["name"]), metric
            assert len(metric["name"]) <= 64
            assert UNIT.match(metric["unit"]), metric
        assert {"name": "setup_s", "unit": "s", "better": "lower",
                "bound": 0.25} in config["end_to_end"]

    def test_workloads_match(self):
        config = bench_config()
        assert [w["name"] for w in config["workloads"]] == list(
            workloads.WORKLOADS
        )


class TestSeeds:
    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_seed_changes_only_the_specs_seeds(self, name):
        one = workloads.build_specs(name, 1)
        two = workloads.build_specs(name, 2)
        assert one == workloads.build_specs(name, 1)
        assert [s.seeds for s in one] != [s.seeds for s in two]
        assert not set(one[0].seeds) & set(two[0].seeds)
        # Everything but the workload seeds is fixed by the workload.
        assert [replace(s, seeds=(1,)) for s in one] == [
            replace(s, seeds=(1,)) for s in two
        ]

    def test_seeds_come_from_the_vetted_pool(self):
        for name, workload in workloads.WORKLOADS.items():
            for seed in range(50):
                seeds = workloads.spec_seeds(workload, seed)
                assert len(set(seeds)) == workload.seeds_per_scenario
                assert set(seeds) <= set(workloads.SEED_POOL)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError):
            workloads.build_specs("ref-matrix", -1)


class TestTracing:
    def test_wrappers_only_observe(self):
        from repro.core.policy import MoCAPolicy
        from repro.experiments import parallel
        from repro.sim import workload as workload_module

        specs = tiny_specs()
        before = fingerprint(specs)
        originals = (
            MoCAPolicy.decide,
            parallel.run_cell_detail,
            workload_module.build_network_cost,
        )
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert MoCAPolicy.decide is not originals[0]
            traced = fingerprint(specs)
        finally:
            tracer.uninstall()
        assert traced == before
        assert (
            MoCAPolicy.decide,
            parallel.run_cell_detail,
            workload_module.build_network_cost,
        ) == originals
        layers = tracing.layer_totals(tracer.spans)
        expected = {layer for layer, *_ in tracing.LAYERS}
        # The serial sweep never exports or warms; every other layer
        # records spans.
        assert expected - set(layers) == {"reporting.export"}
        assert layers["experiments.runner.cell"]["calls"] == 36
        cells = {span[4] for span in tracer.spans}
        assert len(cells) == 36

    def test_self_time_subtracts_direct_children(self):
        spans = [
            ("a", 0.0, 10.0, -1, "c"),
            ("b", 1.0, 4.0, 0, "c"),
            ("c", 2.0, 3.0, 1, "c"),
            ("b", 5.0, 6.0, 0, "c"),
        ]
        totals = tracing.layer_totals(spans)
        assert totals["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
        assert totals["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
        assert totals["c"]["self_s"] == 1.0

    def test_nested_calls_of_one_layer_count_once(self):
        tracer = tracing.Tracer()
        inner = tracer._wrap("x", lambda: 1)
        outer = tracer._wrap("x", lambda: inner() + 1)
        assert outer() == 2
        assert [span[0] for span in tracer.spans] == ["x"]


def run_bench(trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "small-cells-2w", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.slow
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_printed(trace, section):
    lines = run_bench(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in bench_config()[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert NAME.match(name)
        assert any(
            re.fullmatch(rf"{re.escape(name)} \S+ {re.escape(unit)}", line)
            for line in lines
        ), name


@pytest.mark.slow
def test_refuses_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-matrix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
