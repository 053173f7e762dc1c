"""Distributed sweep sharding over the cell manifest.

PR 3 made a sweep's cell list a serialisable document
(:func:`repro.experiments.results.cell_manifest`) precisely so a
sweep could outgrow one host.  This module is that seam made real:

- :class:`ShardPlan` deterministically slices a manifest into N
  balanced shards.  Balancing is cost-aware (a cell's cost is its
  scenario's task count — the dominant wall-clock driver) via
  longest-processing-time-first greedy assignment with stable
  tie-breaks, so every participant that holds the same manifest and N
  computes the *same* plan with no coordination.
- :func:`run_shard` executes exactly one shard's slice through
  :meth:`repro.experiments.parallel.ParallelRunner.run_supervised`
  (warm workers, per-cell retries, quarantine) with the global cell
  indices the plan assigns, and packages the results with
  :func:`build_partial` as a self-describing *partial artifact*: the
  manifest (plus its digest), the shard's identity, per-cell results
  with full-precision metric bundles, and wall-clock telemetry.
  Coordinator lease submissions are the same document with a
  ``lease`` section where shard files have ``shard``.
- :func:`fold_partial` is the one check-and-fold for both: tamper,
  sweep, SoC, slice and coverage refusals, then an all-or-nothing
  fold into a :class:`~repro.experiments.results.SweepResults`.
  :func:`merge_partials` folds any set of shard partials — arriving
  in any order — through it.  Because every cell's metric bundle
  round-trips exactly and the accumulator is completion-order
  independent, the merged matrix — and the JSON/CSV export bytes
  built from it — is **bit-identical** to the same sweep run
  unsharded on one host (``scripts/ci.sh`` diffs exactly that, and
  ``tests/test_sharding.py`` property-checks it over random specs
  and shard counts).
- :class:`CellJournal` checkpoints settled cells, and
  :func:`load_sweep_dir` rebuilds an interrupted sweep from what its
  directory holds (``sweep --resume``, with or without ``--serve``).

The cross-machine recipe::

    # on every host (same scenarios, same overrides):
    python -m repro.cli sweep --scenarios ... --shard I/N --out DIR

    # anywhere, after collecting the partial files:
    python -m repro.cli merge DIR... --out MERGED

"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SoCConfig
from repro.experiments.results import (
    CellFailure,
    CellResult,
    SweepResults,
    cell_from_dict,
    cell_manifest,
    cell_to_dict,
    failure_from_dict,
    failure_to_dict,
)
from repro.scenarios import ScenarioSpec

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_NAME",
    "CellJournal",
    "PARTIAL_FORMAT",
    "ShardPlan",
    "build_partial",
    "check_partial_shape",
    "fold_partial",
    "load_sweep_dir",
    "manifest_digest",
    "manifest_policies",
    "manifest_specs",
    "merge_partials",
    "partial_from_json",
    "partial_to_json",
    "run_shard",
]

#: Format tag of partial artifacts (shard files and lease submissions).
PARTIAL_FORMAT = "repro-sweep-partial/1"

#: Format tag of the per-cell checkpoint journal.
JOURNAL_FORMAT = "repro-sweep-journal/1"

#: File name of the journal inside a sweep export directory.
JOURNAL_NAME = "cells.jsonl"


def _shard_label(index: int, count: int) -> str:
    """Human shard notation (1-based, as the CLI's ``--shard I/N``)."""
    return f"{index + 1}/{count}"


def manifest_digest(manifest: dict) -> str:
    """Deterministic digest of a cell manifest.

    SHA-256 over the canonical (sorted-keys, compact) JSON rendering,
    so two manifests digest equal iff they describe the same sweep —
    same specs (every knob), same policies, same cell flattening.
    The merge path refuses to mix partials with different digests.
    """
    canonical = json.dumps(
        manifest, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def manifest_specs(manifest: dict) -> List[ScenarioSpec]:
    """Rebuild (and validate) the scenario specs of a manifest.

    The specs are reconstructed via :meth:`ScenarioSpec.from_dict`,
    then the manifest is *regenerated* from them and compared against
    the input — a full round-trip check that catches hand-edited,
    truncated or internally inconsistent manifests (e.g. a ``cells``
    list that no longer matches the spec-derived flattening) before
    any simulation time is spent.
    """
    try:
        specs = [
            ScenarioSpec.from_dict(entry["spec"])
            for entry in manifest["scenarios"]
        ]
        policies = list(manifest["policies"])
    except KeyError as exc:
        raise ValueError(
            f"not a cell manifest (missing {exc.args[0]!r})"
        ) from None
    except TypeError as exc:
        raise ValueError(
            f"not a cell manifest (malformed structure: {exc})"
        ) from None
    regenerated = cell_manifest(specs, policies)
    if regenerated != manifest:
        raise ValueError(
            "manifest does not round-trip through its own specs "
            "(hand-edited or corrupt? regenerate it with "
            "repro.experiments.results.cell_manifest)"
        )
    return specs


def manifest_policies(
    manifest: dict, policies: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """The factories of the manifest's policies, in manifest order
    (the order defines the cell flattening).

    ``policies`` defaults to the paper's four.  Raises ``ValueError``
    when the manifest names a policy it has no factory for.
    """
    if policies is None:
        from repro.experiments.runner import default_policies

        policies = default_policies()
    missing = [p for p in manifest["policies"] if p not in policies]
    if missing:
        raise ValueError(
            f"manifest names polic"
            f"{'y' if len(missing) == 1 else 'ies'} {missing} with no "
            f"factory; available: {sorted(policies)}"
        )
    return {name: policies[name] for name in manifest["policies"]}


def _cell_costs(manifest: dict) -> List[int]:
    """Per-cell cost estimates, indexed by global cell index.

    A cell's wall time scales with its scenario's task count (every
    task is generated, scheduled and retired), so ``num_tasks`` is the
    balancing weight; policies and seeds of the same scenario weigh
    the same.
    """
    num_tasks = [
        entry["spec"]["num_tasks"] for entry in manifest["scenarios"]
    ]
    return [num_tasks[cell["spec_index"]] for cell in manifest["cells"]]


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic slicing of one manifest into N shards.

    Attributes:
        num_shards: Shard count the plan was computed for.
        digest: The manifest's :func:`manifest_digest`.
        assignments: Per shard, the ascending global cell indices it
            owns.  Every cell appears in exactly one shard.
        costs: Per shard, the summed cell cost (task count) — the
            balance the plan optimised.
    """

    num_shards: int
    digest: str
    assignments: Tuple[Tuple[int, ...], ...]
    costs: Tuple[int, ...]

    @classmethod
    def from_manifest(cls, manifest: dict, num_shards: int) -> "ShardPlan":
        """Compute the balanced plan for ``manifest`` cut N ways.

        Longest-processing-time-first greedy: cells are taken in
        descending cost order (ties broken by ascending global index)
        and each goes to the currently lightest shard (ties broken by
        ascending shard index).  Purely a function of (manifest, N):
        any host computes the identical plan, so shards can be
        launched independently with no coordinator.

        Shard counts larger than the cell count are allowed — the
        surplus shards are empty (and merge as no-ops), so a fixed
        fleet size need not know the sweep size.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        costs = _cell_costs(manifest)
        order = sorted(
            range(len(costs)), key=lambda i: (-costs[i], i)
        )
        loads = [0] * num_shards
        members: List[List[int]] = [[] for _ in range(num_shards)]
        for index in order:
            shard = min(range(num_shards), key=lambda s: (loads[s], s))
            loads[shard] += costs[index]
            members[shard].append(index)
        return cls(
            num_shards=num_shards,
            digest=manifest_digest(manifest),
            assignments=tuple(
                tuple(sorted(m)) for m in members
            ),
            costs=tuple(loads),
        )

    def shard(self, index: int) -> Tuple[int, ...]:
        """The ascending global cell indices of one shard."""
        if not 0 <= index < self.num_shards:
            raise ValueError(
                f"shard index {index} outside 0..{self.num_shards - 1}"
            )
        return self.assignments[index]


def run_shard(
    manifest: dict,
    shard_index: int,
    num_shards: int,
    policies: Optional[Dict[str, object]] = None,
    soc: Optional[SoCConfig] = None,
    workers: int = 1,
    runner=None,
    supervision=None,
) -> dict:
    """Execute one shard of a manifest and return its partial artifact.

    Rebuilds the specs from the manifest (validated round-trip),
    computes the :class:`ShardPlan`, and runs only this shard's cells
    through a :class:`~repro.experiments.parallel.ParallelRunner`
    (``runner`` is a caller's runner; otherwise one is built with
    ``workers``).  The returned document is self-describing —
    it embeds the manifest, its digest, the shard identity and every
    cell result — so :func:`merge_partials` needs nothing else.

    Args:
        manifest: The sweep's cell manifest (shared by all shards).
        shard_index: Which shard to run, ``0 <= shard_index <
            num_shards``.
        num_shards: Total shard count of the plan.
        policies: Policy factories by name; defaults to the paper's
            four.  Must cover every policy the manifest names.
        soc: SoC configuration (default reference SoC).
        workers: Worker processes for this shard's cells (ignored
            when ``runner`` is given).
        runner: Optional pre-built ``ParallelRunner``.
        supervision: The
            :class:`~repro.experiments.parallel.Supervision` the
            shard runs under (``None`` means its defaults).  A poison
            cell quarantines into the partial's ``failures`` list
            (exit-code 3 at the CLI) instead of aborting the shard.
    """
    from repro.config import DEFAULT_SOC
    from repro.experiments.parallel import ParallelRunner

    if soc is None:
        soc = DEFAULT_SOC
    specs = manifest_specs(manifest)
    # The plan is a pure function of the manifest, so every host
    # computes disjoint slices with no coordination.
    plan = ShardPlan.from_manifest(manifest, num_shards)
    indices = plan.shard(shard_index)
    ordered = manifest_policies(manifest, policies)
    if runner is None:
        runner = ParallelRunner(workers=workers or None)
    t0 = time.perf_counter()
    acc = runner.run_supervised(
        specs, ordered, soc, indices=indices, supervision=supervision,
    )
    wall_seconds = time.perf_counter() - t0
    return build_partial(
        manifest,
        soc,
        "shard",
        {
            "index": shard_index,
            "count": num_shards,
            "cell_indices": list(indices),
            "cost": plan.costs[shard_index],
            "wall_seconds": wall_seconds,
            "workers": runner.workers,
            "mode": runner.last_mode,
        },
        acc.cells(),
        acc.failures(),
    )


def build_partial(
    manifest: dict,
    soc: SoCConfig,
    section: str,
    meta: dict,
    cells: Sequence[CellResult],
    failures: Sequence[CellFailure],
) -> dict:
    """Package executed cells as a self-describing partial artifact.

    The one builder behind shard files (``section="shard"``) and
    coordinator lease submissions (``section="lease"``): the embedded
    manifest and its digest, the recorded SoC, the section naming
    which slice of the sweep this is, and the cells and quarantined
    failures that cover it.
    """
    return {
        "format": PARTIAL_FORMAT,
        "manifest": manifest,
        "manifest_digest": manifest_digest(manifest),
        # The manifest describes the workload; the SoC describes the
        # simulated hardware.  Recorded so a fold can refuse partials
        # computed under different hardware models (the manifest
        # digest alone cannot see this).
        "soc": dataclasses.asdict(soc),
        section: meta,
        "cells": [cell_to_dict(c) for c in cells],
        # Quarantined cells.  A fold treats them as "failed", distinct
        # from "missing": a failed cell was attempted and gave up, a
        # missing cell was never supplied by any partial.
        "failures": [failure_to_dict(f) for f in failures],
    }


def partial_to_json(partial: dict) -> str:
    """Render a partial artifact as pretty, stable JSON text."""
    return json.dumps(partial, indent=2, sort_keys=True) + "\n"


#: Per partial section: its typed identity fields (``cell_indices``,
#: a list of ints, is common to both) and what its declared slice is
#: held to when folded.
_SECTIONS = {
    "shard": (
        (("index", int), ("count", int)),
        "the deterministic plan for this manifest (partial produced "
        "by a different planner?)",
    ),
    "lease": (
        (("lease_id", int), ("worker_id", str)),
        "the granted lease",
    ),
}


def check_partial_shape(partial, section: str) -> None:
    """Refuse a partial missing its top-level structure or the
    ``section`` (``"shard"`` or ``"lease"``) the caller expects.

    Keeps truncated or hand-edited documents in the ValueError family
    (clean one-line CLI errors, HTTP 400s) instead of leaking
    KeyErrors from field access deeper in the fold."""
    if not isinstance(partial, dict):
        raise ValueError(
            f"not a {PARTIAL_FORMAT} document "
            f"(got {type(partial).__name__})"
        )
    if partial.get("format") != PARTIAL_FORMAT:
        raise ValueError(
            f"not a {PARTIAL_FORMAT} document "
            f"(format={partial.get('format')!r})"
        )
    missing = [
        key
        for key in ("manifest", "manifest_digest", "soc", section, "cells")
        if key not in partial
    ]
    if missing:
        raise ValueError(
            f"malformed partial document (missing {missing})"
        )
    # "failures" arrived with the fault-tolerance layer; absent (old
    # artifacts) means "none recorded".
    if (
        not isinstance(partial["manifest"], dict)
        or not isinstance(partial["manifest_digest"], str)
        or not isinstance(partial["soc"], dict)
        or not isinstance(partial["cells"], list)
        or not isinstance(partial.get("failures", []), list)
    ):
        raise ValueError(
            "malformed partial document (wrongly typed manifest/"
            "manifest_digest/soc/cells/failures)"
        )
    meta = partial[section]
    fields = _SECTIONS[section][0] + (("cell_indices", list),)
    if (
        not isinstance(meta, dict)
        # bool is an int subclass; a JSON true/false here is corrupt.
        or not all(
            isinstance(meta.get(key), kind)
            and not isinstance(meta.get(key), bool)
            for key, kind in fields
        )
        or not all(
            isinstance(i, int) and not isinstance(i, bool)
            for i in meta["cell_indices"]
        )
    ):
        raise ValueError(
            f"malformed partial document (incomplete or wrongly "
            f"typed {section!r} section)"
        )


def _partial_label(partial: dict, section: str) -> str:
    """How refusals name a (shape-checked) partial."""
    meta = partial[section]
    if section == "shard":
        return _shard_label(meta["index"], meta["count"])
    return f"lease {meta['lease_id']} ({meta['worker_id']})"


def _verify_stored_digest(partial: dict, label: str) -> str:
    """Re-verify a partial's stored manifest digest against a
    recomputation over its embedded manifest: one whose digest does
    not match was corrupted or hand-edited and must not fold into any
    aggregate.  Returns the verified digest."""
    actual = manifest_digest(partial["manifest"])
    if actual != partial["manifest_digest"]:
        raise ValueError(
            f"{label}: stored manifest digest "
            f"{partial['manifest_digest'][:12]} does not match "
            f"its manifest ({actual[:12]}) — corrupt or tampered "
            f"artifact"
        )
    return actual


def fold_partial(
    acc: SweepResults,
    partial: dict,
    section: str,
    expected: Sequence[int],
    digest: str,
    soc: dict,
) -> Tuple[List[CellResult], List[CellFailure]]:
    """Check one shape-checked partial against the sweep it joins,
    then fold its cells and failures into ``acc``.

    The one check-and-fold behind :func:`merge_partials` and
    ``Coordinator.submit_partial``.  Refused, with ``ValueError``:

    - a stored digest that does not match the embedded manifest
      (tamper), or a manifest other than the sweep's (``digest``);
    - a recorded SoC other than the sweep's (``soc``);
    - a declared slice other than ``expected`` (the shard plan's
      slice, or the live lease's cells);
    - a malformed cell payload, or cells and failures that do not
      cover the declared slice exactly (truncated artifact);
    - a cell that does not sit where the manifest puts it, or that
      already has a result in ``acc`` (overlap).

    Every check runs before anything folds, so a refusal leaves
    ``acc`` untouched.  Returns the folded ``(cells, failures)``.
    """
    label = _partial_label(partial, section)
    _verify_stored_digest(partial, label)
    if partial["manifest_digest"] != digest:
        raise ValueError(
            f"{label}: manifest digest "
            f"{partial['manifest_digest'][:12]} vs {digest[:12]} — "
            f"partials from different sweeps; only partials of the "
            f"identical manifest fold together"
        )
    if partial["soc"] != soc:
        raise ValueError(
            f"{label}: partials from different SoC configurations; "
            f"every host must simulate the identical hardware model"
        )
    declared = sorted(partial[section]["cell_indices"])
    if declared != sorted(expected):
        raise ValueError(
            f"{label}: declared slice does not match "
            f"{_SECTIONS[section][1]}"
        )
    try:
        cells = [cell_from_dict(c) for c in partial["cells"]]
        failures = [
            failure_from_dict(f) for f in partial.get("failures", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{label}: malformed cell payload ({exc!r})"
        ) from exc
    covered = sorted(
        [c.index for c in cells] + [f.index for f in failures]
    )
    if covered != declared:
        raise ValueError(
            f"{label}: cells present (succeeded + quarantined) do not "
            f"match its declared slice (truncated artifact?)"
        )
    slots = partial["manifest"]["cells"]
    for entry in [*cells, *failures]:
        slot = slots[entry.index]
        if (entry.spec_index, entry.policy, entry.seed) != (
            slot["spec_index"], slot["policy"], slot["seed"]
        ):
            raise ValueError(
                f"{label}: cell {entry.index} is not the manifest's "
                f"cell {entry.index} — malformed cell payload"
            )
    for cell in cells:
        if acc.has_cell(cell.index):
            raise ValueError(
                f"{label}: cell {cell.index} already has a result — "
                f"overlapping partials"
            )
    for cell in cells:
        acc.add(cell)
    for failure in failures:
        acc.add_failure(failure)
    return cells, failures


def partial_from_json(text: str) -> dict:
    """Parse a shard partial artifact, rejecting foreign or truncated
    documents."""
    payload = json.loads(text)
    check_partial_shape(payload, "shard")
    return payload


class CellJournal:
    """Append-only per-cell checkpoint for crash-resumable sweeps.

    A supervised ``sweep --out DIR`` appends one line per settled cell
    (result or quarantined failure) to ``DIR/cells.jsonl`` *as it
    settles*, so a sweep killed mid-flight — parent crash, OOM kill,
    Ctrl-C — strands no finished work: ``sweep --resume DIR`` replays
    the journal and re-runs only what is genuinely missing.

    Integrity model: torn and damaged lines are expected (that is what
    a crash leaves behind), so every line carries a SHA-256 of its
    canonical payload JSON.  The reader verifies each line and *skips*
    what fails — a corrupt journal line degrades to a re-run of that
    cell, never to silently wrong bytes in the export.  The header
    line binds the journal to its sweep (manifest digest) and hardware
    model (SoC), so a resume against the wrong directory is refused
    before any simulation time is spent.

    The journal is scaffolding, not an artifact: a sweep that reaches
    a complete export deletes it (:meth:`discard`), keeping export
    directories byte-comparable with fault-free runs.
    """

    def __init__(self, path: Path, digest: str) -> None:
        self.path = Path(path)
        self.digest = digest
        self._fh = None

    # -- writing -------------------------------------------------------

    @classmethod
    def open(
        cls, out_dir, manifest: dict, soc: SoCConfig
    ) -> "CellJournal":
        """Open (or start) the journal for ``out_dir``.

        A fresh sweep writes the header; a resume validates the
        existing header (digest + SoC) and appends after it.
        """
        digest = manifest_digest(manifest)
        path = Path(out_dir) / JOURNAL_NAME
        journal = cls(path, digest)
        soc_dict = dataclasses.asdict(soc)
        if path.exists():
            # Replaying first (via read()) is the caller's job; here
            # we only refuse to append to a foreign journal.
            header = cls._read_header(path)
            if header["manifest_digest"] != digest:
                raise ValueError(
                    f"journal {path} belongs to a different sweep "
                    f"(manifest digest {header['manifest_digest'][:12]} "
                    f"vs {digest[:12]})"
                )
            if header["soc"] != soc_dict:
                raise ValueError(
                    f"journal {path} was recorded under a different "
                    f"SoC configuration"
                )
            journal._fh = path.open("ab")
        else:
            journal._fh = path.open("wb")
            # The full manifest rides in the header: a sweep killed
            # before export time leaves *only* the journal behind, and
            # resume must still be able to rebuild the specs.
            header = {
                "format": JOURNAL_FORMAT,
                "manifest_digest": digest,
                "manifest": manifest,
                "soc": soc_dict,
            }
            journal._append("header", header)
        return journal

    def _append(
        self, kind: str, data: dict, corrupt_seed: Optional[int] = None
    ) -> None:
        """Write one checksummed line (checksum of the *canonical*
        payload, computed before any injected corruption — so injected
        damage is guaranteed to be detectable)."""
        from repro.experiments.faults import corrupt_bytes

        data_json = json.dumps(
            data, sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(data_json.encode()).hexdigest()
        payload = data_json.encode()
        if corrupt_seed is not None:
            payload = corrupt_bytes(payload, seed=corrupt_seed)
        line = (
            b'{"kind":"' + kind.encode()
            + b'","sha256":"' + digest.encode()
            + b'","data":' + payload + b"}\n"
        )
        self._fh.write(line)
        self._fh.flush()

    def append_cell(self, cell, corrupt: bool = False) -> None:
        """Checkpoint a completed cell (``corrupt`` is the fault
        harness's hook: damage this line's payload bytes on disk)."""
        self._append(
            "cell", cell_to_dict(cell),
            corrupt_seed=cell.index if corrupt else None,
        )

    def append_failure(self, failure: CellFailure) -> None:
        """Checkpoint a quarantined failure."""
        self._append("failure", failure_to_dict(failure))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def discard(self) -> None:
        """Delete the journal (the sweep's export is complete — the
        scaffolding must not make the directory differ from a
        fault-free run's)."""
        self.close()
        if self.path.exists():
            self.path.unlink()

    def __enter__(self) -> "CellJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -------------------------------------------------------

    @staticmethod
    def _read_header(path: Path) -> dict:
        with path.open("rb") as fh:
            first = fh.readline()
        header = CellJournal._verify_line(first)
        if (
            header is None
            or header[0] != "header"
            or header[1].get("format") != JOURNAL_FORMAT
            or not isinstance(header[1].get("manifest_digest"), str)
            or not isinstance(header[1].get("manifest"), dict)
            or not isinstance(header[1].get("soc"), dict)
            or manifest_digest(header[1]["manifest"])
            != header[1]["manifest_digest"]
        ):
            raise ValueError(
                f"{path} is not a readable {JOURNAL_FORMAT} journal "
                f"(corrupt or foreign header); delete it to start "
                f"the sweep over"
            )
        return header[1]

    @staticmethod
    def _verify_line(raw: bytes):
        """Parse + checksum one line; ``None`` if it fails either."""
        try:
            entry = json.loads(raw)
        except ValueError:
            return None
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("kind"), str)
            or not isinstance(entry.get("sha256"), str)
            or "data" not in entry
        ):
            return None
        canonical = json.dumps(
            entry["data"], sort_keys=True, separators=(",", ":")
        )
        if hashlib.sha256(canonical.encode()).hexdigest() != entry["sha256"]:
            return None
        return entry["kind"], entry["data"]

    @classmethod
    def read(
        cls,
        path,
        expected_digest: Optional[str] = None,
        expected_soc: Optional[dict] = None,
    ) -> Tuple[list, List[CellFailure], int]:
        """Replay a journal: ``(cells, failures, skipped_lines)``.

        Damaged lines (torn writes, flipped bytes — anything whose
        checksum or JSON fails) are counted in ``skipped_lines`` and
        otherwise ignored: those cells simply stay missing and get
        re-run.  A bad *header* is a hard ``ValueError`` — without it
        the journal cannot be tied to a sweep, so resuming from it
        would be a guess.  Duplicate entries for a cell keep the first
        (journal order is settle order; a later duplicate only arises
        from a resume replaying work, which by retry-determinism is
        bit-identical anyway).  A cell that has both a result and a
        failure entry resolves to the result — success supersedes.
        """
        path = Path(path)
        header = cls._read_header(path)
        if (
            expected_digest is not None
            and header["manifest_digest"] != expected_digest
        ):
            raise ValueError(
                f"journal {path} belongs to a different sweep "
                f"(manifest digest {header['manifest_digest'][:12]} "
                f"vs {expected_digest[:12]})"
            )
        if expected_soc is not None and header["soc"] != expected_soc:
            raise ValueError(
                f"journal {path} was recorded under a different SoC "
                f"configuration"
            )
        cells: Dict[int, object] = {}
        failures: Dict[int, CellFailure] = {}
        skipped = 0
        with path.open("rb") as fh:
            fh.readline()  # header, already verified
            for raw in fh:
                verified = cls._verify_line(raw)
                if verified is None:
                    skipped += 1
                    continue
                kind, data = verified
                try:
                    if kind == "cell":
                        cell = cell_from_dict(data)
                        cells.setdefault(cell.index, cell)
                    elif kind == "failure":
                        failure = failure_from_dict(data)
                        failures.setdefault(failure.index, failure)
                    # Any other checksum-valid kind (older
                    # coordinators journaled lease audit lines) is
                    # not aggregated, but not damage either.
                except (KeyError, TypeError, ValueError):
                    skipped += 1
        if skipped:
            print(
                f"journal: skipped {skipped} damaged line(s) in "
                f"{path}; the affected cells will be re-run",
                file=sys.stderr,
            )
        for index in cells:
            failures.pop(index, None)
        return (
            [cells[i] for i in sorted(cells)],
            [failures[i] for i in sorted(failures)],
            skipped,
        )


def merge_partials(
    partials: Sequence[dict], require_complete: bool = True
) -> SweepResults:
    """Fold shard partial artifacts into one sweep accumulator.

    Partials may arrive in any order.  Each is held to the first
    partial's manifest and SoC and to its slice of the deterministic
    :class:`ShardPlan` by :func:`fold_partial`; on top of that,
    inconsistent shard counts and repeated shard indices are refused,
    and so are gaps (missing cells) unless ``require_complete=False``
    — the error names the absent shard indices so the operator knows
    which host to chase.

    The merged accumulator is bit-identical to running the whole
    sweep on one host (same :meth:`SweepResults.matrix`, same export
    bytes).
    """
    if not partials:
        raise ValueError("no partials to merge")
    for partial in partials:
        check_partial_shape(partial, "shard")
    reference = partials[0]
    count = reference["shard"]["count"]
    for partial in partials:
        if partial["shard"]["count"] != count:
            raise ValueError(
                f"partials from different shard plans: "
                f"{partial['shard']['count']} shards vs {count}"
            )
    seen_shards: Dict[int, int] = {}
    for partial in partials:
        idx = partial["shard"]["index"]
        seen_shards[idx] = seen_shards.get(idx, 0) + 1
    repeated = [
        _shard_label(i, count)
        for i, n in sorted(seen_shards.items())
        if n > 1
    ]
    if repeated:
        raise ValueError(
            f"shard(s) {repeated} supplied more than once; drop the "
            f"duplicate partial files"
        )
    # The reference's manifest defines the sweep: verify it before
    # rebuilding specs from it.
    digest = _verify_stored_digest(
        reference, _partial_label(reference, "shard")
    )
    manifest = reference["manifest"]
    plan = ShardPlan.from_manifest(manifest, count)
    acc = SweepResults(
        manifest_specs(manifest), list(manifest["policies"])
    )
    for partial in partials:
        fold_partial(
            acc, partial, "shard", plan.shard(partial["shard"]["index"]),
            digest, reference["soc"],
        )
    if require_complete and not acc.complete:
        missing = acc.missing_indices()
        failed = acc.failed_indices()
        absent = [
            _shard_label(s, count)
            for s in range(plan.num_shards)
            if s not in seen_shards and plan.shard(s)
        ]
        raise ValueError(
            f"merge incomplete: {len(missing)} of {acc.expected} "
            f"cells missing (first: {missing[:5]}), {len(failed)} of "
            f"them quarantined failures; absent shard(s): {absent}; "
            f"quarantined cells can be re-run with sweep --resume"
        )
    return acc


def load_sweep_dir(out) -> Tuple[dict, List[ScenarioSpec], SweepResults]:
    """Reconstruct ``(manifest, specs, acc)`` from what an interrupted
    sweep left in ``out``: ``manifest.json`` (or the checkpoint
    journal's embedded manifest), any ``partial-*.json`` shard
    artifacts, and the ``cells.jsonl`` journal.

    Everything is digest-checked against the manifest, so loading the
    wrong directory (or a tampered journal) raises ``ValueError``
    before any simulation time is spent.  Quarantined failures stay
    missing in ``acc``: a resume re-runs them.
    """
    from repro.config import DEFAULT_SOC

    out = Path(out)
    journal_path = out / JOURNAL_NAME
    partial_files = sorted(out.glob("partial-*.json"))
    manifest_path = out / "manifest.json"
    manifest = None
    if manifest_path.is_file():
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"{manifest_path} is not readable JSON ({exc})"
            ) from exc
    elif journal_path.is_file():
        manifest = CellJournal._read_header(journal_path)["manifest"]
    if manifest is None and not partial_files:
        raise ValueError(
            f"nothing to resume in {out} (no manifest.json, "
            f"no {JOURNAL_NAME}, no partial-*.json)"
        )
    partials = []
    for path in partial_files:
        try:
            partials.append(partial_from_json(path.read_text()))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if manifest is None:
        manifest = partials[0]["manifest"]
    try:
        specs = manifest_specs(manifest)
    except ValueError as exc:
        raise ValueError(f"{out}: {exc}") from exc
    digest = manifest_digest(manifest)
    for path, partial in zip(partial_files, partials):
        if partial["manifest_digest"] != digest:
            raise ValueError(
                f"{path} belongs to a different sweep "
                f"(manifest digest {partial['manifest_digest'][:12]} "
                f"vs {digest[:12]})"
            )
    if partials:
        try:
            acc = merge_partials(partials, require_complete=False)
        except ValueError as exc:
            raise ValueError(f"{out}: {exc}") from exc
    else:
        acc = SweepResults(specs, list(manifest["policies"]))
    if journal_path.is_file():
        cells, failures, _skipped = CellJournal.read(
            journal_path, digest, dataclasses.asdict(DEFAULT_SOC)
        )
        for cell in cells:
            if not acc.has_cell(cell.index):
                acc.add(cell)
        for failure in failures:
            acc.add_failure(failure)
    return manifest, specs, acc
