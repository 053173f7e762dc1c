"""The curated top-level API stays importable and complete."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_end_to_end_through_top_level_only(self):
        """The README's quickstart works using only `repro.*` names."""
        gen = repro.WorkloadGenerator(
            repro.DEFAULT_SOC, repro.workload_set("A")
        )
        tasks = gen.generate(repro.WorkloadConfig(
            num_tasks=12, qos_level=repro.QosLevel.MEDIUM, seed=1,
        ))
        result = repro.run_simulation(
            repro.DEFAULT_SOC, tasks, repro.MoCAPolicy()
        )
        summary = repro.summarize("moca", result.results)
        assert summary.num_tasks == 12
        assert 0.0 <= summary.sla_rate <= 1.0

    def test_policies_share_interface(self):
        from repro.sim.policy import Policy

        for cls in (repro.MoCAPolicy, repro.PremaPolicy,
                    repro.StaticPartitionPolicy, repro.PlanariaPolicy):
            assert issubclass(cls, Policy)


class TestTracedLayers:
    def test_every_benchmark_layer_resolves(self):
        """Each name the benchmark's layer tracer patches exists where
        the tracer looks it up: in the class ``__dict__`` (so an
        inherited method does not count) or as a module attribute.  A
        rename in ``src/`` then fails here, not in a traced run."""
        import importlib
        import importlib.util
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "perfbench" / "tracing.py"
        )
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", path
        )
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.LAYERS
        for layer, module_name, class_name, attr in tracing.LAYERS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name, None)
                assert owner is not None, (layer, class_name)
                target = owner.__dict__.get(attr)
            else:
                target = getattr(module, attr, None)
            assert callable(target), (layer, module_name, class_name, attr)


class TestBenchmarkReads:
    def test_sweep_telemetry_names_resolve(self):
        """Each sweep attribute and counter key the benchmark harness
        (``perfbench/sweep.py``) reads exists under that name.  A
        rename in ``src/`` then fails here, not in a benchmark run."""
        from repro.experiments.parallel import ParallelRunner, Supervision
        from repro.experiments.runner import ScenarioSpec
        from repro.sim.qos import QosLevel

        runner = ParallelRunner(workers=1)
        spec = ScenarioSpec(
            workload_set="A", qos_level=QosLevel.MEDIUM, num_tasks=4,
            seeds=(1,),
        )
        acc = runner.run_supervised([spec], supervision=Supervision())
        assert runner.last_mode in ("serial", "parallel")
        assert runner.workers == 1
        assert runner.total_warmup_timeouts == 0
        assert acc.complete and len(acc) == acc.expected
        assert acc.matrix()
        assert all(cell.seconds >= 0.0 for cell in acc.cells())
        assert set(acc.cache_stats()) >= {
            "cost_cache_hits", "cost_cache_misses",
            "predict_memo_hits", "predict_memo_misses",
        }
        assert set(acc.decision_stats()) >= {
            "events", "block_time_reuses", "block_time_recomputes",
            "decisions", "plans_applied", "plan_actions",
        }


class TestImportHygiene:
    def test_local_sweep_imports_skip_the_execution_layer(self):
        """A local or pool sweep never loads the coordinator/HTTP layer
        (``repro.experiments`` exports it lazily)."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "import json, sys\n"
            "import repro.experiments.parallel, repro.reporting\n"
            "print(json.dumps(sorted(m for m in sys.modules if m in "
            "('http.server', 'repro.experiments.execution'))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert json.loads(out.stdout) == []

    def test_runtime_imports_no_numpy(self):
        """The runtime is stdlib-only: a fresh interpreter that imports
        ``repro`` and runs a 4-task scenario under every policy never
        loads numpy."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "import sys\n"
            "import repro\n"
            "from repro.experiments.runner import ScenarioSpec, "
            "run_scenario\n"
            "out = run_scenario(ScenarioSpec(workload_set='A', "
            "num_tasks=4, seeds=(1,)))\n"
            "assert sorted(out) == "
            "['moca', 'planaria', 'prema', 'static'], sorted(out)\n"
            "print('numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_lazy_experiment_exports_resolve(self):
        import repro.experiments as experiments
        from repro.experiments import Coordinator, WorkLedger
        from repro.experiments.execution import coordinator, leases

        assert Coordinator is coordinator.Coordinator
        assert WorkLedger is leases.WorkLedger
        for name in experiments.__all__:
            assert hasattr(experiments, name), name
