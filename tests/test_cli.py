"""Tests for the CLI argument parsing (ISSUE bugfix: malformed
--seeds / --scenarios values must exit with clean argparse errors, not
tracebacks) and the sweep export path."""

import json

import pytest

from repro.cli import (
    _export_filename,
    _parse_formats,
    _parse_names,
    _parse_seeds,
    _parse_shard,
    build_parser,
    main,
)


class TestParseSeeds:
    def test_valid(self):
        assert _parse_seeds("1,2,3") == (1, 2, 3)
        assert _parse_seeds(" 4 , 5 ") == (4, 5)
        assert _parse_seeds("0") == (0,)

    @pytest.mark.parametrize("bad", ["", "   ", ","])
    def test_empty_rejected(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="empty"):
            _parse_seeds(bad)

    def test_trailing_comma_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="comma"):
            _parse_seeds("1,2,")

    def test_non_integer_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="integer"):
            _parse_seeds("1,x")

    def test_negative_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match=">= 0"):
            _parse_seeds("1,-3")


class TestParseNames:
    def test_valid(self):
        assert _parse_names("a,b") == ("a", "b")
        assert _parse_names(" a , b ") == ("a", "b")

    def test_empty_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="empty"):
            _parse_names("")

    def test_trailing_comma_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="comma"):
            _parse_names("a,b,")


class TestParseFormats:
    def test_valid_and_deduplicated(self):
        assert _parse_formats("json,csv") == ("json", "csv")
        assert _parse_formats("csv,csv") == ("csv",)

    def test_unknown_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="unknown"):
            _parse_formats("json,xml")


class TestParseShard:
    def test_valid_one_based_to_zero_based(self):
        assert _parse_shard("1/4") == (0, 4)
        assert _parse_shard("4/4") == (3, 4)
        assert _parse_shard(" 2 / 3 ") == (1, 3)
        assert _parse_shard("1/1") == (0, 1)

    @pytest.mark.parametrize("bad", ["", "2", "a/2", "1/0", "0/2", "3/2"])
    def test_malformed_rejected(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_shard(bad)


class TestParserExitBehaviour:
    """Malformed values exit via argparse (status 2, clean
    subcommand-prefixed message on stderr) instead of a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--scenarios", "a,", "--seeds", "1"],
            ["sweep", "--scenarios", "bursty-mixed", "--seeds", ""],
            ["sweep", "--scenarios", "bursty-mixed", "--seeds", "1,q"],
            ["sweep", "--scenarios", "bursty-mixed", "--seeds", "-1"],
            ["fig5", "--seeds", "2,"],
        ],
    )
    def test_malformed_values_exit_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[0]}: error:" in err

    def test_unknown_scenario_prefixed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--scenarios", "no-such-scenario"])
        assert str(excinfo.value).startswith("sweep:")

    @pytest.mark.parametrize("cadence", ["sometimes", "interval",
                                         "interval:zero"])
    def test_malformed_cadence_exits_cleanly(self, cadence, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["sweep", "--scenarios", "bursty-mixed",
                 "--cadence", cadence]
            )
        assert excinfo.value.code == 2
        assert "sweep: error:" in capsys.readouterr().err

    def test_decisions_with_shard_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["sweep", "--scenarios", "bursty-mixed",
                 "--shard", "1/2", "--out", str(tmp_path / "s"),
                 "--decisions"]
            )
        assert "no effect with --shard" in str(excinfo.value)


class TestScenarioGlobs:
    """ISSUE satellite: --scenarios accepts glob patterns resolved
    against the registry, refusing patterns that match nothing."""

    def test_glob_expands_against_registry(self):
        from repro.cli import _expand_scenario_patterns
        from repro.scenarios import scenario_names

        expanded = _expand_scenario_patterns(("ref-*-qos-h",))
        assert expanded == [
            n for n in scenario_names()
            if n.startswith("ref-") and n.endswith("-qos-h")
        ]
        assert expanded  # the builtins guarantee matches

    def test_plain_names_pass_through(self):
        from repro.cli import _expand_scenario_patterns

        assert _expand_scenario_patterns(
            ("bursty-mixed", "diurnal-light")
        ) == ["bursty-mixed", "diurnal-light"]

    def test_overlapping_patterns_deduplicated(self):
        from repro.cli import _expand_scenario_patterns

        expanded = _expand_scenario_patterns(
            ("bursty-*", "bursty-mixed")
        )
        assert expanded.count("bursty-mixed") == 1

    def test_unmatched_pattern_named_in_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--scenarios", "bursty-*,nope-*,zilch-?"])
        message = str(excinfo.value)
        assert "'nope-*'" in message and "'zilch-?'" in message
        assert "match no registered scenarios" in message

    def test_glob_sweep_runs(self, capsys):
        rc = main(
            ["sweep", "--scenarios", "bursty-*", "--tasks", "6",
             "--seeds", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bursty-mixed" in out and "bursty-rush" in out


class TestCadenceCli:
    def test_cadence_override_with_decisions_table(self, capsys):
        rc = main(
            ["sweep", "--scenarios", "ref-a-qos-m", "--tasks", "6",
             "--seeds", "1", "--cadence", "block-boundary",
             "--decisions"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "scenario ref-a-qos-m" in captured.out
        assert "decisions" in captured.err  # telemetry table header

    def test_explicit_every_event_matches_default(self, capsys):
        base = ["sweep", "--scenarios", "ref-a-qos-m", "--tasks", "6",
                "--seeds", "1"]
        assert main(base) == 0
        default_out = capsys.readouterr().out
        assert main(base + ["--cadence", "every-event"]) == 0
        explicit_out = capsys.readouterr().out
        assert explicit_out == default_out

class TestSweepGuards:
    def test_format_without_out_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["sweep", "--scenarios", "bursty-mixed",
                 "--format", "csv"]
            )
        assert "requires --out" in str(excinfo.value)

    def test_shard_without_out_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["sweep", "--scenarios", "bursty-mixed",
                 "--shard", "1/2"]
            )
        assert "requires --out" in str(excinfo.value)

    def test_shard_with_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["sweep", "--scenarios", "bursty-mixed",
                 "--shard", "1/2", "--out", str(tmp_path / "s"),
                 "--format", "csv"]
            )
        assert "no effect with --shard" in str(excinfo.value)

    def test_merge_missing_path_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(tmp_path / "nowhere")])
        assert "does not exist" in str(excinfo.value)

    def test_merge_input_error_leaves_no_stray_out_dir(self, tmp_path):
        """Review finding: a typo'd or unparsable input must not
        leave behind a freshly created empty --out directory."""
        out = tmp_path / "merged"
        with pytest.raises(SystemExit, match="does not exist"):
            main(
                ["merge", str(tmp_path / "nowhere"), "--out", str(out)]
            )
        assert not out.exists()
        bad = tmp_path / "partial-1-of-2.json"
        bad.write_text('{"format": "repro-sweep-partial/1"}')
        with pytest.raises(SystemExit, match="malformed"):
            main(["merge", str(bad), "--out", str(out)])
        assert not out.exists()

    def test_sweep_stem_collision_refused_before_running(self, tmp_path):
        """Review finding: export-name validation depends only on the
        labels, so the refusal must come before any simulation — a
        'manifest'-named scenario with a huge task count exits
        immediately instead of sweeping first and discarding the
        result."""
        import time

        from repro.scenarios import ScenarioSpec, temporary_scenario

        spec = ScenarioSpec(workload_set="A", num_tasks=5000, seeds=(1,))
        with temporary_scenario("manifest", spec):
            t0 = time.time()
            with pytest.raises(SystemExit, match="manifest"):
                main(
                    ["sweep", "--scenarios", "manifest",
                     "--out", str(tmp_path / "out")]
                )
            assert time.time() - t0 < 5.0

    def test_merge_empty_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(tmp_path)])
        assert "no partial-" in str(excinfo.value)

    def test_merge_format_without_out_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(tmp_path), "--format", "csv"])
        assert "requires --out" in str(excinfo.value)


class TestOverwriteGuard:
    def test_non_empty_out_dir_refused_without_force(self, tmp_path):
        """ISSUE satellite: prior artifacts are never silently
        clobbered."""
        from repro.cli import _ensure_out_dir

        out = tmp_path / "exports"
        out.mkdir()
        (out / "prior.json").write_text("{}")
        with pytest.raises(SystemExit, match="--force"):
            _ensure_out_dir(out, False, "sweep")
        assert _ensure_out_dir(out, True, "sweep") == out

    def test_out_pointing_at_file_rejected_cleanly(self, tmp_path):
        """Review finding: --out at an existing regular file must be
        a clean usage error, not a NotADirectoryError/FileExistsError
        traceback."""
        from repro.cli import _ensure_out_dir

        notadir = tmp_path / "notadir"
        notadir.write_text("x")
        with pytest.raises(SystemExit, match="not a directory"):
            _ensure_out_dir(notadir, False, "sweep")
        with pytest.raises(SystemExit, match="not a directory"):
            _ensure_out_dir(notadir, True, "merge")
        with pytest.raises(SystemExit, match="not a directory"):
            main(
                ["sweep", "--scenarios", "bursty-mixed",
                 "--tasks", "8", "--seeds", "1",
                 "--shard", "1/2", "--out", str(notadir)]
            )

    def test_empty_or_absent_dir_accepted(self, tmp_path):
        from repro.cli import _ensure_out_dir

        fresh = tmp_path / "fresh"
        assert _ensure_out_dir(fresh, False, "sweep") == fresh
        assert _ensure_out_dir(fresh, False, "sweep") == fresh

    def test_vetting_never_deletes(self, tmp_path):
        """Review finding: the pre-run vet must not delete anything —
        cleanup is deferred until results exist, so a failed run
        cannot leave the directory emptied."""
        from repro.cli import _ensure_out_dir

        out = tmp_path / "exports"
        out.mkdir()
        (out / "old-scenario.json").write_text("{}")
        _ensure_out_dir(out, True, "sweep")
        assert (out / "old-scenario.json").exists()

    def test_clean_clears_manifest_named_artifacts_only(self, tmp_path):
        """Review findings: --force must remove the prior export
        artifacts (a re-export with different scenarios would
        otherwise leave stale files mixed in) — but only the files
        the prior manifest.json names, never unrelated JSON/CSV
        sitting in the directory (e.g. --out . in a repo root)."""
        import json

        from repro.cli import _clean_out_dir

        out = tmp_path / "exports"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps(
            {"scenarios": [{"label": "old-scenario", "spec": {}}],
             "policies": [], "cells": []}
        ))
        (out / "old-scenario.json").write_text("{}")
        (out / "old-scenario.csv").write_text("a,b\n")
        (out / "unrelated.json").write_text("{}")
        (out / "notes.txt").write_text("keep me")
        (out / "subdir").mkdir()
        _clean_out_dir(out)
        assert sorted(p.name for p in out.iterdir()) == [
            "notes.txt", "subdir", "unrelated.json",
        ]
        _clean_out_dir(tmp_path / "absent")  # no-op

    def test_pre_run_vet_does_not_create_the_directory(self, tmp_path):
        """Review finding: the pre-sweep vet must not mkdir — a run
        failing after it must leave no stray empty directory (the
        export writer creates it once results exist)."""
        from repro.cli import _ensure_out_dir

        out = tmp_path / "results"
        _ensure_out_dir(out, False, "sweep", create=False)
        assert not out.exists()
        _ensure_out_dir(out, False, "sweep")
        assert out.is_dir()

    def test_clean_without_prior_manifest_removes_nothing(self, tmp_path):
        from repro.cli import _clean_out_dir

        out = tmp_path / "exports"
        out.mkdir()
        (out / "data.json").write_text("{}")
        _clean_out_dir(out)
        assert (out / "data.json").exists()


class TestExportFilename:
    def test_sanitizes_path_separators(self):
        assert _export_filename("Workload-A/QoS-M") == "Workload-A-QoS-M"
        assert _export_filename("bursty-mixed") == "bursty-mixed"

    def test_colliding_labels_rejected_not_overwritten(self, tmp_path):
        """Two labels sanitizing to the same stem must fail loudly
        instead of silently overwriting one scenario's files."""
        from repro.cli import _write_sweep_exports

        with pytest.raises(SystemExit, match="both export as"):
            _write_sweep_exports(
                {"a/b": {}, "a b": {}}, [], tmp_path, ("json",)
            )

    def test_manifest_label_rejected(self, tmp_path):
        """A scenario labeled 'manifest' would collide with the
        reserved manifest.json."""
        from repro.cli import _write_sweep_exports

        with pytest.raises(SystemExit, match="manifest"):
            _write_sweep_exports({"manifest": {}}, [], tmp_path, ("json",))

    def test_refused_export_with_clean_keeps_prior_artifacts(
        self, tmp_path
    ):
        """Review finding: the --force cleanup must run only after
        the stem validation, so a refused export cannot have already
        destroyed the old artifacts."""
        from repro.cli import _write_sweep_exports

        prior = tmp_path / "prior.json"
        prior.write_text("{}")
        with pytest.raises(SystemExit, match="manifest"):
            _write_sweep_exports(
                {"manifest": {}}, [], tmp_path, ("json",), clean=True
            )
        assert prior.exists()


@pytest.mark.slow
class TestSweepOut:
    def test_writes_per_scenario_exports_and_manifest(self, tmp_path):
        out = tmp_path / "exports"
        rc = main(
            [
                "sweep",
                "--scenarios", "ref-a-qos-m",
                "--tasks", "8",
                "--seeds", "1",
                "--out", str(out),
                "--format", "json,csv",
            ]
        )
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "manifest.json", "ref-a-qos-m.csv", "ref-a-qos-m.json",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["cells"]) == 4  # 1 scenario x 4 policies x 1 seed
        from repro.reporting import sweep_from_json

        back = sweep_from_json((out / "ref-a-qos-m.json").read_text())
        assert set(back) == {"ref-a-qos-m"}


@pytest.mark.slow
class TestShardMergeCli:
    def test_shard_merge_exports_byte_identical_to_unsharded(
        self, tmp_path
    ):
        """ISSUE acceptance: `sweep --shard I/N` partials merged via
        `merge` write the same export bytes as one unsharded run."""
        base = [
            "sweep", "--scenarios", "ref-a-qos-m",
            "--tasks", "8", "--seeds", "1,2",
        ]
        shards = tmp_path / "shards"
        for shard in ("1/2", "2/2"):
            assert main(
                base + ["--shard", shard, "--out", str(shards)]
            ) == 0
        assert sorted(p.name for p in shards.iterdir()) == [
            "partial-1-of-2.json", "partial-2-of-2.json",
        ]
        merged = tmp_path / "merged"
        assert main(["merge", str(shards), "--out", str(merged)]) == 0
        unsharded = tmp_path / "unsharded"
        assert main(base + ["--out", str(unsharded)]) == 0
        names = sorted(p.name for p in merged.iterdir())
        assert names == sorted(p.name for p in unsharded.iterdir())
        for name in names:
            assert (merged / name).read_bytes() == (
                unsharded / name
            ).read_bytes(), name

    def test_merge_out_overlapping_inputs_refused(self, tmp_path):
        """Review finding: `merge shards/ --out shards/ --force` used
        to delete its own input partials; the overlap is now refused
        with the partials intact."""
        shards = tmp_path / "shards"
        assert main([
            "sweep", "--scenarios", "ref-a-qos-m", "--tasks", "8",
            "--seeds", "1", "--shard", "1/1", "--out", str(shards),
        ]) == 0
        for argv in (
            ["merge", str(shards), "--out", str(shards), "--force"],
            ["merge", str(shards), "--out", str(shards)],
            ["merge", str(shards / "partial-1-of-1.json"),
             "--out", str(shards), "--force"],
        ):
            with pytest.raises(SystemExit, match="different directory"):
                main(argv)
        assert (shards / "partial-1-of-1.json").exists()

    def test_merge_refuses_mixed_digests(self, tmp_path):
        shards = tmp_path / "shards"
        assert main([
            "sweep", "--scenarios", "ref-a-qos-m", "--tasks", "8",
            "--seeds", "1", "--shard", "1/2", "--out", str(shards),
        ]) == 0
        assert main([
            "sweep", "--scenarios", "ref-a-qos-m", "--tasks", "9",
            "--seeds", "1", "--shard", "2/2", "--out", str(shards),
        ]) == 0
        with pytest.raises(SystemExit, match="different sweeps"):
            main(["merge", str(shards)])


class TestSweepExitCodes:
    """ISSUE satellite: documented sweep exit codes — 0 complete,
    3 degraded (quarantined cells), 1 hard error."""

    def test_constants(self):
        from repro.cli import EXIT_DEGRADED, EXIT_HARD_ERROR, EXIT_OK

        assert (EXIT_OK, EXIT_HARD_ERROR, EXIT_DEGRADED) == (0, 1, 3)

    def test_complete_sweep_exits_0(self, capsys):
        assert main([
            "sweep", "--scenarios", "ref-a-qos-m",
            "--tasks", "8", "--seeds", "1",
        ]) == 0
        assert "ref-a-qos-m" in capsys.readouterr().out

    def test_degraded_sweep_exits_3_with_failure_table(self, capsys):
        rc = main([
            "sweep", "--scenarios", "ref-a-qos-m",
            "--tasks", "8", "--seeds", "1",
            "--inject-faults", "transient:cells=1:attempts=all",
            "--max-retries", "0", "--retry-backoff", "0",
        ])
        assert rc == 3
        out = capsys.readouterr().out
        assert "sweep degraded: 3 of 4 cells completed" in out
        assert "cell    1" in out
        assert "[error]" in out

    def test_usage_error_is_systemexit(self):
        """Hard errors surface as SystemExit with a message — the
        interpreter maps that to exit code 1."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep"])
        assert excinfo.value.code not in (0, 3)

    def test_malformed_inject_faults_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["sweep", "--scenarios", "x",
                 "--inject-faults", "explode:cells=1"]
            )
        assert excinfo.value.code == 2
        assert "explode" in capsys.readouterr().err

    def test_bad_supervision_values_rejected(self):
        with pytest.raises(SystemExit, match="max_retries"):
            main([
                "sweep", "--scenarios", "ref-a-qos-m",
                "--tasks", "8", "--seeds", "1",
                "--max-retries", "-1",
            ])
        for flag, value in (
            ("--retry-backoff", "nan"),
            ("--cell-timeout", "inf"),
        ):
            with pytest.raises(SystemExit, match="finite"):
                main([
                    "sweep", "--scenarios", "ref-a-qos-m",
                    "--tasks", "8", "--seeds", "1", flag, value,
                ])


class TestSweepResumeCli:
    """`sweep --resume DIR` (ISSUE tentpole): crash-resumable sweeps
    with byte-identical exports."""

    BASE = [
        "sweep", "--scenarios", "ref-a-qos-m",
        "--tasks", "8", "--seeds", "1",
    ]

    def _dir_bytes(self, path):
        return {
            p.name: p.read_bytes() for p in sorted(path.iterdir())
        }

    def test_degraded_resume_exports_byte_identical(
        self, tmp_path, capsys
    ):
        """ISSUE acceptance: fault -> exit 3 + journal -> resume ->
        exit 0, export bytes identical to a fault-free run."""
        ref = tmp_path / "ref"
        assert main(self.BASE + ["--out", str(ref)]) == 0
        faulted = tmp_path / "faulted"
        rc = main(self.BASE + [
            "--out", str(faulted),
            "--inject-faults", "transient:cells=2:attempts=all",
            "--max-retries", "0", "--retry-backoff", "0",
        ])
        assert rc == 3
        # Degraded: only the checkpoint journal, no half exports.
        assert sorted(p.name for p in faulted.iterdir()) == [
            "cells.jsonl"
        ]
        assert "--resume" in capsys.readouterr().out
        assert main(["sweep", "--resume", str(faulted)]) == 0
        err = capsys.readouterr().err
        assert "re-running 1" in err
        assert self._dir_bytes(faulted) == self._dir_bytes(ref)

    def test_resume_after_export_is_idempotent(self, tmp_path):
        out = tmp_path / "done"
        assert main(self.BASE + ["--out", str(out)]) == 0
        before = self._dir_bytes(out)
        assert main(["sweep", "--resume", str(out)]) == 0
        assert self._dir_bytes(out) == before

    def test_resume_refuses_scenario_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--scenarios"):
            main([
                "sweep", "--resume", str(tmp_path),
                "--scenarios", "ref-a-qos-m",
            ])
        with pytest.raises(SystemExit, match="--tasks"):
            main(["sweep", "--resume", str(tmp_path), "--tasks", "8"])

    def test_resume_non_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="not a directory"):
            main(["sweep", "--resume", str(tmp_path / "absent")])

    def test_resume_empty_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="nothing to resume"):
            main(["sweep", "--resume", str(tmp_path)])

    def test_interrupted_dir_hint_mentions_resume(self, tmp_path):
        out = tmp_path / "faulted"
        assert main(self.BASE + [
            "--out", str(out),
            "--inject-faults", "transient:cells=0:attempts=all",
            "--max-retries", "0", "--retry-backoff", "0",
        ]) == 3
        with pytest.raises(SystemExit, match="--resume"):
            main(self.BASE + ["--out", str(out)])

    def test_force_discards_stale_journal(self, tmp_path):
        out = tmp_path / "faulted"
        assert main(self.BASE + [
            "--out", str(out),
            "--inject-faults", "transient:cells=0:attempts=all",
            "--max-retries", "0", "--retry-backoff", "0",
        ]) == 3
        assert (out / "cells.jsonl").exists()
        assert main(self.BASE + ["--out", str(out), "--force"]) == 0
        assert not (out / "cells.jsonl").exists()

    def test_resume_foreign_journal_refused(self, tmp_path):
        out = tmp_path / "faulted"
        assert main(self.BASE + [
            "--out", str(out),
            "--inject-faults", "transient:cells=0:attempts=all",
            "--max-retries", "0", "--retry-backoff", "0",
        ]) == 3
        # A manifest.json from a *different* sweep alongside the
        # journal: the digests disagree, resume must refuse.
        other = tmp_path / "other"
        assert main([
            "sweep", "--scenarios", "ref-a-qos-m",
            "--tasks", "9", "--seeds", "1", "--out", str(other),
        ]) == 0
        import shutil

        shutil.copy(other / "manifest.json", out / "manifest.json")
        with pytest.raises(SystemExit, match="different sweep"):
            main(["sweep", "--resume", str(out)])


@pytest.mark.slow
class TestDegradedShardResumeCli:
    def test_degraded_shard_partial_heals_via_resume(self, tmp_path):
        """A quarantined cell inside a shard partial (exit 3) is
        healed by resuming the shard directory; merge of the healthy
        partials alone refuses with a resume hint."""
        base = [
            "sweep", "--scenarios", "ref-a-qos-m",
            "--tasks", "8", "--seeds", "1,2",
        ]
        shards = tmp_path / "shards"
        rc = main(base + [
            "--shard", "1/2", "--out", str(shards),
            "--inject-faults", "transient:cells=0:attempts=all",
            "--max-retries", "0", "--retry-backoff", "0",
        ])
        assert rc == 3
        assert main(
            base + ["--shard", "2/2", "--out", str(shards)]
        ) == 0
        with pytest.raises(SystemExit, match="resume"):
            main(["merge", str(shards)])
        assert main(["sweep", "--resume", str(shards)]) == 0
        unsharded = tmp_path / "unsharded"
        assert main(base + ["--out", str(unsharded)]) == 0
        for name in ("manifest.json", "ref-a-qos-m.json",
                     "ref-a-qos-m.csv"):
            assert (shards / name).read_bytes() == (
                unsharded / name
            ).read_bytes(), name


class TestDistributedSweepCli:
    """PR 8: ``sweep --serve`` / ``sweep --worker URL`` flag wiring
    and the coordinator/worker loop end-to-end at the CLI layer."""

    def test_worker_refuses_conflicting_flags(self, tmp_path):
        for extra in (
            ["--scenarios", "ref-a-qos-m"],
            ["--serve"],
            ["--out", str(tmp_path)],
            ["--shard", "1/2"],
            ["--resume", str(tmp_path)],
            ["--tasks", "8"],
            ["--seeds", "1"],
            ["--format", "json"],
        ):
            with pytest.raises(SystemExit, match="--worker"):
                main(
                    ["sweep", "--worker", "http://127.0.0.1:1"]
                    + extra
                )

    def test_serve_requires_out(self):
        with pytest.raises(SystemExit, match="--out"):
            main([
                "sweep", "--scenarios", "ref-a-qos-m",
                "--tasks", "8", "--seeds", "1", "--serve",
            ])

    def test_serve_refuses_static_shard(self, tmp_path):
        with pytest.raises(SystemExit, match="--shard"):
            main([
                "sweep", "--scenarios", "ref-a-qos-m",
                "--tasks", "8", "--seeds", "1", "--serve",
                "--shard", "1/2", "--out", str(tmp_path / "o"),
            ])

    def test_serve_validates_lease_knobs(self, tmp_path):
        base = [
            "sweep", "--scenarios", "ref-a-qos-m", "--tasks", "8",
            "--seeds", "1", "--serve", "--out", str(tmp_path / "o"),
        ]
        with pytest.raises(SystemExit, match="lease-ttl"):
            main(base + ["--lease-ttl", "0"])
        with pytest.raises(SystemExit, match="lease-ttl"):
            main(base + ["--lease-ttl", "nan"])
        with pytest.raises(SystemExit, match="lease-cost"):
            main(base + ["--lease-cost", "0"])

    def test_worker_refuses_non_http_url(self):
        with pytest.raises(SystemExit, match="http"):
            main(["sweep", "--worker", "ftp://127.0.0.1:1"])

    def test_serve_and_worker_end_to_end(self, tmp_path):
        """A coordinator served from one thread and a worker driven
        through the real CLI entry point drain the sweep to exports
        byte-identical to an unsharded run."""
        import threading
        import time

        out = tmp_path / "served"
        base = [
            "sweep", "--scenarios", "ref-a-qos-m",
            "--tasks", "8", "--seeds", "1",
        ]
        rc = {}

        def serve():
            rc["serve"] = main(
                base + ["--out", str(out), "--serve"]
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        discovery = out / "coordinator.json"
        url = None
        for _ in range(200):
            try:
                url = json.loads(discovery.read_text())["url"]
                break
            except (OSError, ValueError):
                time.sleep(0.05)
        assert url, "coordinator.json never appeared"
        assert main(["sweep", "--worker", url]) == 0
        thread.join(timeout=60)
        assert rc.get("serve") == 0
        assert not discovery.exists()  # orderly exit cleans it up
        unsharded = tmp_path / "unsharded"
        assert main(base + ["--out", str(unsharded)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in unsharded.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (
                unsharded / name
            ).read_bytes(), name


class TestMergeInputHardening:
    """PR 8 satellite: anything unreadable or non-partial handed to
    ``merge`` dies with one clean line, never a traceback."""

    def test_merge_binary_garbage_clean_error(self, tmp_path):
        shards = tmp_path / "shards"
        shards.mkdir()
        (shards / "partial-1-of-2.json").write_bytes(
            b"\x80\x81\xfe\xff not json at all"
        )
        with pytest.raises(SystemExit, match="merge: "):
            main(["merge", str(shards)])

    def test_merge_directory_partial_clean_error(self, tmp_path):
        shards = tmp_path / "shards"
        (shards / "partial-1-of-2.json").mkdir(parents=True)
        with pytest.raises(SystemExit, match="merge: "):
            main(["merge", str(shards)])

    def test_merge_non_partial_json_clean_error(self, tmp_path):
        shards = tmp_path / "shards"
        shards.mkdir()
        (shards / "partial-1-of-2.json").write_text(
            json.dumps({"format": "not-a-partial"})
        )
        with pytest.raises(SystemExit, match="merge: "):
            main(["merge", str(shards)])
