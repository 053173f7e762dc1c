"""Tests for distributed sweep sharding (ISSUE tentpole): ShardPlan
balancing/determinism, run_shard partial artifacts, and the merge
path's bit-identity with single-host runs."""

import copy
import hashlib
import json
import random

import pytest

from repro.experiments.parallel import ParallelRunner
from repro.experiments.results import (
    cell_from_dict,
    cell_manifest,
    cell_to_dict,
)
from repro.experiments.runner import default_policies
from repro.experiments.faults import FaultPlan
from repro.experiments.sharding import (
    JOURNAL_NAME,
    PARTIAL_FORMAT,
    CellJournal,
    ShardPlan,
    manifest_digest,
    manifest_specs,
    merge_partials,
    partial_from_json,
    partial_to_json,
    run_shard,
)
from repro.reporting import sweep_to_csv, sweep_to_json
from repro.scenarios import ScenarioSpec
from repro.sim.qos import QosLevel

SPECS = [
    ScenarioSpec(
        workload_set="A", qos_level=QosLevel.MEDIUM,
        num_tasks=12, seeds=(1, 2),
    ),
    ScenarioSpec(
        workload_set="A", qos_level=QosLevel.LIGHT,
        num_tasks=8, seeds=(3,),
    ),
]


@pytest.fixture(scope="module")
def manifest():
    return cell_manifest(SPECS)


@pytest.fixture(scope="module")
def serial_matrix(serial_reference):
    return serial_reference(SPECS)


@pytest.fixture(scope="module")
def partials(manifest):
    return [run_shard(manifest, i, 3) for i in range(3)]


class TestManifestDigest:
    def test_digest_stable_and_order_sensitive(self, manifest):
        assert manifest_digest(manifest) == manifest_digest(
            copy.deepcopy(manifest)
        )
        other = cell_manifest(list(reversed(SPECS)))
        assert manifest_digest(other) != manifest_digest(manifest)

    def test_digest_sensitive_to_any_knob(self, manifest):
        from dataclasses import replace

        bumped = cell_manifest(
            [replace(SPECS[0], num_tasks=13), SPECS[1]]
        )
        assert manifest_digest(bumped) != manifest_digest(manifest)

    def test_manifest_specs_round_trip(self, manifest):
        assert manifest_specs(manifest) == SPECS

    def test_manifest_specs_rejects_tampering(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["cells"] = broken["cells"][:-1]
        with pytest.raises(ValueError, match="round-trip"):
            manifest_specs(broken)
        broken = copy.deepcopy(manifest)
        broken["cells"][0]["policy"] = "impostor"
        with pytest.raises(ValueError, match="round-trip"):
            manifest_specs(broken)
        with pytest.raises(ValueError, match="manifest"):
            manifest_specs({"scenarios": []})
        # Wrong-typed sections get the malformed-structure message,
        # not a garbled "missing <TypeError text>".
        with pytest.raises(ValueError, match="malformed structure"):
            manifest_specs({"scenarios": 5, "policies": []})


class TestShardPlan:
    def test_every_cell_in_exactly_one_shard(self, manifest):
        for n in (1, 2, 3, 5):
            plan = ShardPlan.from_manifest(manifest, n)
            flat = sorted(
                i for shard in plan.assignments for i in shard
            )
            assert flat == list(range(len(manifest["cells"])))

    def test_deterministic(self, manifest):
        a = ShardPlan.from_manifest(manifest, 4)
        b = ShardPlan.from_manifest(copy.deepcopy(manifest), 4)
        assert a == b

    def test_cost_aware_balance(self, manifest):
        """LPT balancing: no shard's task-count load exceeds the
        ideal mean by more than one cell's worth."""
        plan = ShardPlan.from_manifest(manifest, 3)
        total = sum(plan.costs)
        heaviest_cell = max(
            spec["spec"]["num_tasks"] for spec in manifest["scenarios"]
        )
        for load in plan.costs:
            assert load <= total / plan.num_shards + heaviest_cell

    def test_more_shards_than_cells_gives_empty_shards(self, manifest):
        cells = len(manifest["cells"])
        plan = ShardPlan.from_manifest(manifest, cells + 5)
        non_empty = [s for s in plan.assignments if s]
        assert len(non_empty) == cells
        assert all(len(s) == 1 for s in non_empty)

    def test_bad_inputs(self, manifest):
        with pytest.raises(ValueError, match=">= 1"):
            ShardPlan.from_manifest(manifest, 0)
        plan = ShardPlan.from_manifest(manifest, 2)
        with pytest.raises(ValueError, match="outside"):
            plan.shard(2)


class TestRunShard:
    def test_partial_is_self_describing(self, manifest, partials):
        digest = manifest_digest(manifest)
        seen = []
        for i, partial in enumerate(partials):
            assert partial["format"] == PARTIAL_FORMAT
            assert partial["manifest_digest"] == digest
            assert partial["manifest"] == manifest
            shard = partial["shard"]
            assert (shard["index"], shard["count"]) == (i, 3)
            assert shard["wall_seconds"] >= 0
            assert sorted(c["index"] for c in partial["cells"]) == list(
                shard["cell_indices"]
            )
            seen.extend(shard["cell_indices"])
        assert sorted(seen) == list(range(len(manifest["cells"])))

    def test_partial_json_round_trip(self, partials):
        back = partial_from_json(partial_to_json(partials[0]))
        assert back == partials[0]
        with pytest.raises(ValueError, match=PARTIAL_FORMAT.split("/")[0]):
            partial_from_json(json.dumps({"format": "other"}))

    def test_cell_dict_round_trip(self, partials):
        for payload in partials[0]["cells"]:
            cell = cell_from_dict(payload)
            assert cell_to_dict(cell) == payload

    def test_bad_shard_index_rejected(self, manifest):
        with pytest.raises(ValueError, match="outside"):
            run_shard(manifest, 2, 2)

    def test_missing_policy_factory_rejected(self, manifest):
        with pytest.raises(ValueError, match="moca"):
            run_shard(
                manifest, 0, 2,
                policies={"prema": default_policies()["prema"]},
            )

    def test_reuses_caller_runner(self, manifest):
        runner = ParallelRunner(workers=1)
        partial = run_shard(manifest, 0, 2, runner=runner)
        assert partial["shard"]["workers"] == 1
        assert partial["shard"]["mode"] == "serial"


class TestMergeIdentity:
    def test_merged_matrix_identical_to_unsharded(
        self, partials, serial_matrix
    ):
        """ISSUE tentpole: merging all partials reproduces the
        unsharded matrix bit-for-bit."""
        acc = merge_partials(partials)
        matrix = acc.matrix()
        assert set(matrix) == set(serial_matrix)
        for label, cell in serial_matrix.items():
            for policy, result in cell.items():
                assert matrix[label][policy].per_seed == result.per_seed

    def test_merge_order_independent_and_exports_byte_identical(
        self, partials, serial_matrix
    ):
        """ISSUE acceptance: JSON/CSV export bytes of the merged
        matrix equal the single-host run's, whatever order the
        partials arrive in."""
        want_json = sweep_to_json(serial_matrix)
        want_csv = sweep_to_csv(serial_matrix)
        for trial in range(3):
            shuffled = partials[:]
            random.Random(trial).shuffle(shuffled)
            matrix = merge_partials(shuffled).matrix()
            assert sweep_to_json(matrix) == want_json
            assert sweep_to_csv(matrix) == want_csv

    def test_single_shard_merge(self, manifest, serial_matrix):
        partial = run_shard(manifest, 0, 1)
        matrix = merge_partials([partial]).matrix()
        assert sweep_to_json(matrix) == sweep_to_json(serial_matrix)

    def test_merged_exports_match_pinned_goldens(self):
        """ISSUE acceptance: the shard/merge path reproduces the
        golden-pinned export digests (tests/goldens/sweep_exports.json)
        that the one-host exporters are held to."""
        from test_reporting import GOLDEN_EXPORT_PATH, GOLDEN_EXPORT_SPECS

        manifest = cell_manifest(GOLDEN_EXPORT_SPECS)
        merged = merge_partials(
            [run_shard(manifest, i, 2) for i in (1, 0)]
        ).matrix()
        golden = json.loads(GOLDEN_EXPORT_PATH.read_text())
        actual = {
            "json": hashlib.sha256(
                sweep_to_json(merged).encode()
            ).hexdigest()[:16],
            "csv": hashlib.sha256(
                sweep_to_csv(merged).encode()
            ).hexdigest()[:16],
        }
        assert actual == golden["digests"]


class TestMergeRefusals:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no partials"):
            merge_partials([])

    def test_gap_detected_with_absent_shard_named(self, partials):
        with pytest.raises(ValueError, match=r"absent shard\(s\): \['2/3'\]"):
            merge_partials([partials[0], partials[2]])
        acc = merge_partials(
            [partials[0], partials[2]], require_complete=False
        )
        assert not acc.complete
        assert acc.missing_indices() == sorted(
            partials[1]["shard"]["cell_indices"]
        )

    def test_overlap_detected(self, partials):
        """An artifact padded with another shard's cell is refused —
        the plan check catches it before the cell-level overlap check
        (which stays as defense in depth behind it)."""
        overlapping = copy.deepcopy(partials[1])
        stolen = copy.deepcopy(partials[0]["cells"][0])
        overlapping["cells"].append(stolen)
        overlapping["shard"]["cell_indices"] = sorted(
            overlapping["shard"]["cell_indices"] + [stolen["index"]]
        )
        with pytest.raises(ValueError, match="deterministic plan"):
            merge_partials([partials[0], overlapping, partials[2]])

    def test_duplicate_shard_rejected(self, partials):
        with pytest.raises(ValueError, match="more than once"):
            merge_partials(list(partials) + [partials[0]])

    def test_mixed_manifest_digests_rejected(self, manifest):
        from dataclasses import replace

        other = cell_manifest([replace(SPECS[0], num_tasks=13), SPECS[1]])
        a = run_shard(manifest, 0, 2)
        b = run_shard(other, 1, 2)
        with pytest.raises(ValueError, match="different sweeps"):
            merge_partials([a, b])

    def test_mixed_soc_configs_rejected(self, manifest, partials):
        """Review finding: the manifest digest describes the workload
        only; partials simulated under different hardware models must
        refuse to merge."""
        import dataclasses as dc

        from repro.config import DEFAULT_SOC

        other_soc = dc.replace(DEFAULT_SOC, num_tiles=4)
        foreign = run_shard(manifest, 1, 3, soc=other_soc)
        with pytest.raises(ValueError, match="SoC configurations"):
            merge_partials([partials[0], foreign, partials[2]])

    def test_partials_record_the_soc(self, partials):
        import dataclasses as dc

        from repro.config import DEFAULT_SOC

        assert partials[0]["soc"] == dc.asdict(DEFAULT_SOC)

    def test_mixed_shard_counts_rejected(self, manifest, partials):
        half = run_shard(manifest, 0, 2)
        with pytest.raises(ValueError, match="different shard plans"):
            merge_partials([half, partials[2]])

    def test_tampered_digest_rejected(self, partials):
        forged = copy.deepcopy(partials[0])
        forged["manifest"]["cells"][0]["seed"] = 999
        with pytest.raises(ValueError, match="tampered"):
            merge_partials([forged])

    def test_truncated_cells_rejected(self, partials):
        truncated = copy.deepcopy(partials[0])
        truncated["cells"] = truncated["cells"][:-1]
        with pytest.raises(ValueError, match="declared slice"):
            merge_partials([truncated])

    def test_slice_disagreeing_with_plan_rejected(self, partials):
        """Review finding: a partial whose declared slice differs from
        the deterministic plan (e.g. built by a different planner)
        would corrupt the gap diagnostics; it is refused outright."""
        a = copy.deepcopy(partials[0])
        b = copy.deepcopy(partials[1])
        # Swap one cell between the two shards: both stay internally
        # consistent (cells match their declared slices) but neither
        # slice matches the plan any more.
        cell_a, cell_b = a["cells"].pop(), b["cells"].pop()
        a["cells"].append(cell_b)
        b["cells"].append(cell_a)
        a["shard"]["cell_indices"] = sorted(
            c["index"] for c in a["cells"]
        )
        b["shard"]["cell_indices"] = sorted(
            c["index"] for c in b["cells"]
        )
        with pytest.raises(ValueError, match="deterministic plan"):
            merge_partials([a, b, partials[2]])

    def test_shard_index_outside_plan_rejected(self, partials):
        rogue = copy.deepcopy(partials[0])
        rogue["shard"]["index"] = 5
        with pytest.raises(ValueError, match="outside"):
            merge_partials([rogue] + list(partials[1:]))

    def test_malformed_cell_payload_rejected_cleanly(self, partials):
        """Review finding: a corrupt cell dict must surface as the
        same ValueError family as every other refusal, not a raw
        KeyError traceback."""
        mangled = copy.deepcopy(partials[0])
        del mangled["cells"][0]["summary"]
        with pytest.raises(ValueError, match="malformed cell"):
            merge_partials([mangled])

    def test_foreign_document_rejected(self, partials):
        alien = {"format": "something-else"}
        with pytest.raises(ValueError, match="repro-sweep-partial"):
            merge_partials([alien, partials[0]])

    def test_truncated_top_level_rejected_cleanly(self, partials):
        """Review finding: a format-tagged document missing its
        top-level keys must refuse with a ValueError, not leak a
        KeyError traceback from field access."""
        stub = {"format": PARTIAL_FORMAT}
        with pytest.raises(ValueError, match="malformed partial"):
            merge_partials([stub])
        with pytest.raises(ValueError, match="malformed partial"):
            partial_from_json(json.dumps(stub))
        headless = copy.deepcopy(partials[0])
        del headless["shard"]["cell_indices"]
        with pytest.raises(ValueError, match="shard"):
            merge_partials([headless])
        # Wrongly typed shard fields are refused too, not leaked as
        # TypeErrors from the comparisons downstream.
        stringly = copy.deepcopy(partials[0])
        stringly["shard"]["index"] = "0"
        with pytest.raises(ValueError, match="typed"):
            merge_partials([stringly])
        numeric = copy.deepcopy(partials[0])
        numeric["manifest_digest"] = 5
        with pytest.raises(ValueError, match="typed"):
            merge_partials([numeric])
        # Corrupt metric values refuse at decode, not deep in export
        # arithmetic.
        stringy_metric = copy.deepcopy(partials[0])
        stringy_metric["cells"][0]["summary"]["sla_rate"] = "0.9"
        with pytest.raises(ValueError, match="sla_rate"):
            merge_partials([stringy_metric])


class TestShardMergeProperty:
    """ISSUE satellite: for random specs and any shard count, merging
    shuffled partials reproduces the unsharded sweep exactly."""

    @pytest.mark.parametrize("case", range(4))
    def test_random_specs_any_shard_count(self, case, serial_reference):
        from dataclasses import replace

        from test_scenario_properties import random_spec

        rng = random.Random(5150 + case)
        specs = []
        for i in range(rng.randrange(1, 3)):
            spec = random_spec(100 * case + i)
            specs.append(
                replace(spec, num_tasks=min(spec.num_tasks, 10),
                        name=f"prop-shard-{case}-{i}")
            )
        manifest = cell_manifest(specs)
        num_shards = rng.randrange(1, len(manifest["cells"]) + 2)
        partials = [
            run_shard(manifest, i, num_shards)
            for i in range(num_shards)
        ]
        rng.shuffle(partials)
        merged = merge_partials(partials).matrix()
        serial = serial_reference(specs)
        assert sweep_to_json(merged) == sweep_to_json(serial)
        assert sweep_to_csv(merged) == sweep_to_csv(serial)


class TestIterCellsIndices:
    """``run_supervised(indices=...)``: the subset seam shards and
    leases ride on."""

    def test_subset_keeps_global_indices(self):
        runner = ParallelRunner(workers=1)
        wanted = [5, 0, 3]
        cells = runner.run_supervised(SPECS, indices=wanted).cells()
        assert sorted(c.index for c in cells) == sorted(wanted)

    def test_empty_subset_yields_nothing(self):
        runner = ParallelRunner(workers=1)
        assert runner.run_supervised(SPECS, indices=[]).cells() == []

    def test_bad_indices_rejected(self):
        runner = ParallelRunner(workers=1)
        with pytest.raises(ValueError, match="outside"):
            runner.run_supervised(SPECS, indices=[0, 999])
        with pytest.raises(ValueError, match="duplicate"):
            runner.run_supervised(SPECS, indices=[1, 1])


class TestShardFailures:
    """Partials carry quarantined failures (ISSUE tentpole): merge
    distinguishes 'failed' from 'missing'."""

    @pytest.fixture(scope="class")
    def degraded_partial(self, manifest):
        from repro.experiments.parallel import Supervision

        return run_shard(
            manifest, 0, 1,
            supervision=Supervision(
                max_retries=0, backoff_base=0.0,
                fault_plan=FaultPlan.parse(
                    "transient:cells=0:attempts=all"
                ),
            ),
        )

    def test_supervised_shard_quarantines_into_partial(
        self, degraded_partial, manifest
    ):
        (failure,) = degraded_partial["failures"]
        assert failure["index"] == 0
        assert failure["kind"] == "error"
        covered = sorted(
            [c["index"] for c in degraded_partial["cells"]]
            + [f["index"] for f in degraded_partial["failures"]]
        )
        assert covered == list(range(len(manifest["cells"])))

    def test_degraded_partial_round_trips(self, degraded_partial):
        back = partial_from_json(partial_to_json(degraded_partial))
        assert back == degraded_partial

    def test_merge_folds_failures_as_failed_not_missing(
        self, degraded_partial
    ):
        acc = merge_partials([degraded_partial], require_complete=False)
        assert acc.failed_indices() == [0]
        assert acc.degraded
        # ... and a complete merge refuses, pointing at resume.
        with pytest.raises(ValueError, match="resume"):
            merge_partials([degraded_partial])

    def test_unsupervised_shard_records_no_failures(self, partials):
        assert all(p["failures"] == [] for p in partials)

    def test_legacy_partials_without_failures_key_accepted(
        self, partials, serial_matrix
    ):
        legacy = [copy.deepcopy(p) for p in partials]
        for p in legacy:
            del p["failures"]
        acc = merge_partials(legacy)
        assert acc.matrix() == serial_matrix

    def test_wrongly_typed_failures_rejected(self, partials):
        bad = copy.deepcopy(partials[0])
        bad["failures"] = "nope"
        with pytest.raises(ValueError, match="failures"):
            partial_from_json(partial_to_json(bad))

    def test_failure_outside_slice_rejected(self, partials):
        bad = copy.deepcopy(partials[0])
        bad["failures"] = [
            dict(
                index=10**6, spec_index=0, label="x", policy="moca",
                seed=1, kind="error", attempts=1, message="m",
            )
        ]
        with pytest.raises(ValueError, match="declared slice"):
            merge_partials([bad], require_complete=False)


class TestCellJournal:
    """The crash-resume checkpoint journal: per-line checksums,
    corruption degrades to a re-run, headers bind to the sweep."""

    @pytest.fixture()
    def soc_dict(self):
        import dataclasses

        from repro.config import DEFAULT_SOC

        return dataclasses.asdict(DEFAULT_SOC)

    @pytest.fixture()
    def cells(self, partials):
        return [cell_from_dict(c) for c in partials[0]["cells"]]

    def _open(self, tmp_path, manifest):
        from repro.config import DEFAULT_SOC

        return CellJournal.open(tmp_path, manifest, DEFAULT_SOC)

    def test_round_trip_exact(self, tmp_path, manifest, cells, soc_dict):
        from repro.experiments.results import CellFailure

        # Quarantine an index the cells don't cover (a journaled
        # success would supersede the failure on replay).
        free = next(
            i for i in range(len(manifest["cells"]))
            if i not in {c.index for c in cells}
        )
        entry = manifest["cells"][free]
        failure = CellFailure(
            index=free, spec_index=entry["spec_index"],
            label=SPECS[entry["spec_index"]].label,
            policy=entry["policy"], seed=entry["seed"], kind="crash",
            attempts=2, message="boom",
        )
        with self._open(tmp_path, manifest) as journal:
            for cell in cells:
                journal.append_cell(cell)
            journal.append_failure(failure)
        back_cells, back_failures, skipped = CellJournal.read(
            tmp_path / JOURNAL_NAME,
            manifest_digest(manifest), soc_dict,
        )
        assert skipped == 0
        assert back_cells == sorted(cells, key=lambda c: c.index)
        assert back_failures == [failure]

    def test_corrupted_line_skipped_not_trusted(
        self, tmp_path, manifest, cells, soc_dict, capsys
    ):
        with self._open(tmp_path, manifest) as journal:
            journal.append_cell(cells[0])
            journal.append_cell(cells[1], corrupt=True)
        back, _, skipped = CellJournal.read(
            tmp_path / JOURNAL_NAME,
            manifest_digest(manifest), soc_dict,
        )
        assert skipped == 1
        assert [c.index for c in back] == [cells[0].index]
        assert "re-run" in capsys.readouterr().err

    def test_torn_tail_skipped(self, tmp_path, manifest, cells, soc_dict):
        path = tmp_path / JOURNAL_NAME
        with self._open(tmp_path, manifest) as journal:
            journal.append_cell(cells[0])
        with path.open("ab") as fh:
            fh.write(b'{"kind":"cell","sha2')  # the crash, mid-write
        back, _, skipped = CellJournal.read(
            path, manifest_digest(manifest), soc_dict
        )
        assert skipped == 1
        assert [c.index for c in back] == [cells[0].index]

    def test_wrong_digest_refused(self, tmp_path, manifest, soc_dict):
        with self._open(tmp_path, manifest):
            pass
        with pytest.raises(ValueError, match="different sweep"):
            CellJournal.read(
                tmp_path / JOURNAL_NAME, "0" * 64, soc_dict
            )

    def test_tampered_header_refused(self, tmp_path, manifest, soc_dict):
        """The header's digest is recomputed from its embedded
        manifest — editing one without the other is caught."""
        path = tmp_path / JOURNAL_NAME
        with self._open(tmp_path, manifest):
            pass
        lines = path.read_bytes().splitlines(keepends=True)
        entry = json.loads(lines[0])
        entry["data"]["manifest_digest"] = "0" * 64
        canonical = json.dumps(
            entry["data"], sort_keys=True, separators=(",", ":")
        )
        entry["sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_bytes(json.dumps(entry).encode() + b"\n")
        with pytest.raises(ValueError, match="journal"):
            CellJournal.read(path, manifest_digest(manifest), soc_dict)

    def test_reopen_appends_and_foreign_journal_refused(
        self, tmp_path, manifest, cells, soc_dict
    ):
        with self._open(tmp_path, manifest) as journal:
            journal.append_cell(cells[0])
        with self._open(tmp_path, manifest) as journal:
            journal.append_cell(cells[1])
        back, _, skipped = CellJournal.read(
            tmp_path / JOURNAL_NAME,
            manifest_digest(manifest), soc_dict,
        )
        assert skipped == 0
        assert sorted(c.index for c in back) == sorted(
            c.index for c in cells[:2]
        )
        from repro.config import DEFAULT_SOC
        from dataclasses import replace

        other = cell_manifest([replace(SPECS[0], num_tasks=99)])
        with pytest.raises(ValueError, match="different sweep"):
            CellJournal.open(tmp_path, other, DEFAULT_SOC)

    def test_success_supersedes_failure_on_replay(
        self, tmp_path, manifest, cells, soc_dict
    ):
        from repro.experiments.results import CellFailure

        target = cells[0]
        spec_index, policy, seed = (
            target.spec_index, target.policy, target.seed
        )
        failure = CellFailure(
            index=target.index, spec_index=spec_index,
            label=target.label, policy=policy, seed=seed,
            kind="error", attempts=1, message="first try",
        )
        with self._open(tmp_path, manifest) as journal:
            journal.append_failure(failure)
            journal.append_cell(target)  # the resumed re-run
        back_cells, back_failures, _ = CellJournal.read(
            tmp_path / JOURNAL_NAME,
            manifest_digest(manifest), soc_dict,
        )
        assert [c.index for c in back_cells] == [target.index]
        assert back_failures == []

    def test_discard_removes_the_file(self, tmp_path, manifest):
        journal = self._open(tmp_path, manifest)
        path = tmp_path / JOURNAL_NAME
        assert path.exists()
        journal.discard()
        assert not path.exists()


class TestJournalExtensionEvents:
    """Journals written by older coordinators carry checksummed lines
    of kinds ``read()`` does not aggregate (a lease audit trail).
    ``read()`` must tolerate them silently — they are not damage —
    while still skipping torn lines."""

    @pytest.fixture()
    def soc_dict(self):
        import dataclasses

        from repro.config import DEFAULT_SOC

        return dataclasses.asdict(DEFAULT_SOC)

    @pytest.fixture()
    def cells(self, partials):
        return [cell_from_dict(c) for c in partials[0]["cells"]]

    def _open(self, tmp_path, manifest):
        from repro.config import DEFAULT_SOC

        return CellJournal.open(tmp_path, manifest, DEFAULT_SOC)

    @staticmethod
    def _append_event(path, kind, data):
        """Write one checksummed line of ``kind``, as older
        coordinators did."""
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        line = {
            "kind": kind,
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "data": data,
        }
        with path.open("ab") as fh:
            fh.write(json.dumps(line).encode() + b"\n")

    def test_read_ignores_extension_events_silently(
        self, tmp_path, manifest, cells, soc_dict, capsys
    ):
        path = tmp_path / JOURNAL_NAME
        self._open(tmp_path, manifest).close()
        self._append_event(path, "lease-op", {"op": "lease", "id": 1})
        with self._open(tmp_path, manifest) as journal:
            journal.append_cell(cells[0])
        self._append_event(path, "lease-op", {"op": "expire", "id": 1})
        back, failures, skipped = CellJournal.read(
            path, manifest_digest(manifest), soc_dict,
        )
        assert skipped == 0  # extension lines are not damage
        assert [c.index for c in back] == [cells[0].index]
        assert failures == []
        assert capsys.readouterr().err == ""

    def test_damaged_event_lines_skipped(
        self, tmp_path, manifest, soc_dict
    ):
        path = tmp_path / JOURNAL_NAME
        self._open(tmp_path, manifest).close()
        self._append_event(path, "lease-op", {"op": "lease", "id": 1})
        with path.open("ab") as fh:
            fh.write(b'{"kind":"lease-op","sha2')  # torn tail
        back, failures, skipped = CellJournal.read(
            path, manifest_digest(manifest), soc_dict,
        )
        assert (back, failures, skipped) == ([], [], 1)
