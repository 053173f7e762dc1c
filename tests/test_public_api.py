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

    def test_lazy_experiment_exports_resolve(self):
        import repro.experiments as experiments
        from repro.experiments import Coordinator, WorkLedger
        from repro.experiments.execution import coordinator, leases

        assert Coordinator is coordinator.Coordinator
        assert WorkLedger is leases.WorkLedger
        for name in experiments.__all__:
            assert hasattr(experiments, name), name
