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
- :func:`run_shard` executes exactly one shard's slice — reusing
  :meth:`repro.experiments.parallel.ParallelRunner.run_supervised`
  (warm pools, per-cell retries, serial fallback) with the global
  cell indices the manifest assigns — and packages the results as a
  self-describing *partial artifact*: the manifest (plus its digest),
  the shard's identity, per-cell results with full-precision metric
  bundles, and wall-clock/cache telemetry.
- :func:`merge_partials` folds any set of partial artifacts —
  arriving in any order — back into a
  :class:`~repro.experiments.results.SweepResults`.  Partials from
  different manifests (detected by digest), overlapping cells and
  gaps are rejected loudly.  Because every cell's metric bundle
  round-trips exactly and the accumulator is completion-order
  independent, the merged matrix — and the JSON/CSV export bytes
  built from it — is **bit-identical** to the same sweep run
  unsharded on one host (``scripts/ci.sh`` diffs exactly that, and
  ``tests/test_sharding.py`` property-checks it over random specs
  and shard counts).

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
    "manifest_digest",
    "manifest_specs",
    "merge_partials",
    "partial_from_json",
    "partial_to_json",
    "run_shard",
]

#: Format tag of shard partial artifacts.
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
    (``runner`` reuses a caller's warm pool; otherwise one is built
    with ``workers``).  The returned document is self-describing —
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
        runner: Optional pre-built/pre-warmed ``ParallelRunner``.
        supervision: The
            :class:`~repro.experiments.parallel.Supervision` the
            shard runs under (``None`` means its defaults).  A poison
            cell quarantines into the partial's ``failures`` list
            (exit-code 3 at the CLI) instead of aborting the shard.
    """
    from repro.config import DEFAULT_SOC
    # Imported lazily: the execution package imports this module for
    # the plan/cost/journal machinery, so the dependency must point
    # one way at import time.
    from repro.experiments.execution.leases import WorkLedger
    from repro.experiments.execution.worker import execute_lease
    from repro.experiments.parallel import ParallelRunner
    from repro.experiments.runner import default_policies

    if soc is None:
        soc = DEFAULT_SOC
    specs = manifest_specs(manifest)
    # Static sharding is the degenerate case of the work ledger:
    # every host pre-leases its own deterministic ShardPlan slice
    # from its own ledger (no coordination — the plan is a pure
    # function of the manifest), then runs it through the same
    # execute_lease code path the dynamic worker loop uses.
    ledger = WorkLedger(manifest, lease_ttl=None)
    lease = ledger.pre_lease_shard(num_shards, shard_index)
    indices = lease.indices
    if policies is None:
        policies = default_policies()
    missing = [p for p in manifest["policies"] if p not in policies]
    if missing:
        raise ValueError(
            f"manifest names policies {missing} with no factory; "
            f"available: {sorted(policies)}"
        )
    # The manifest's policy order defines the cell flattening; feed
    # the factories in exactly that order.
    ordered = {name: policies[name] for name in manifest["policies"]}
    if runner is None:
        runner = ParallelRunner(workers=workers or None)
    t0 = time.perf_counter()
    cells, failures = execute_lease(
        runner, specs, ordered, soc, indices, supervision
    )
    wall_seconds = time.perf_counter() - t0
    return {
        "format": PARTIAL_FORMAT,
        "manifest": manifest,
        "manifest_digest": ledger.digest,
        # The manifest describes the workload; the SoC describes the
        # simulated hardware.  Recorded so merge can refuse partials
        # computed under different hardware models (the manifest
        # digest alone cannot see this).
        "soc": dataclasses.asdict(soc),
        "shard": {
            "index": shard_index,
            "count": num_shards,
            "cell_indices": list(indices),
            "cost": lease.cost,
            "wall_seconds": wall_seconds,
            "workers": runner.workers,
            "mode": runner.last_mode,
        },
        "cells": [cell_to_dict(c) for c in cells],
        # Quarantined cells (supervised runs only; empty otherwise).
        # Merge treats them as "failed", distinct from "missing": a
        # failed cell was attempted and gave up, a missing cell was
        # never supplied by any partial.
        "failures": [failure_to_dict(f) for f in failures],
    }


def partial_to_json(partial: dict) -> str:
    """Render a partial artifact as pretty, stable JSON text."""
    return json.dumps(partial, indent=2, sort_keys=True) + "\n"


def _validate_partial_shape(partial: dict) -> None:
    """Refuse a partial missing its top-level structure.

    Keeps truncated or hand-edited documents in the ValueError family
    (clean one-line CLI errors) instead of leaking KeyErrors from
    field access deeper in the merge."""
    if partial.get("format") != PARTIAL_FORMAT:
        raise ValueError(
            f"not a {PARTIAL_FORMAT} document "
            f"(format={partial.get('format')!r})"
        )
    missing = [
        key
        for key in ("manifest", "manifest_digest", "soc", "shard", "cells")
        if key not in partial
    ]
    if missing:
        raise ValueError(
            f"malformed partial document (missing {missing})"
        )
    if (
        not isinstance(partial["manifest"], dict)
        or not isinstance(partial["manifest_digest"], str)
        or not isinstance(partial["soc"], dict)
        or not isinstance(partial["cells"], list)
    ):
        raise ValueError(
            "malformed partial document (wrongly typed manifest/"
            "manifest_digest/soc/cells)"
        )
    # "failures" arrived with the fault-tolerance layer; absent (old
    # artifacts) means "none recorded".
    if not isinstance(partial.get("failures", []), list):
        raise ValueError(
            "malformed partial document (wrongly typed 'failures')"
        )
    shard = partial["shard"]
    if (
        not isinstance(shard, dict)
        or not isinstance(shard.get("index"), int)
        or not isinstance(shard.get("count"), int)
        or not isinstance(shard.get("cell_indices"), list)
        or not all(isinstance(i, int) for i in shard["cell_indices"])
        # bool is an int subclass; a JSON true/false here is corrupt.
        or isinstance(shard["index"], bool)
        or isinstance(shard["count"], bool)
    ):
        raise ValueError(
            "malformed partial document (incomplete or wrongly "
            "typed 'shard' section)"
        )


def verify_stored_digest(partial: dict, what: str) -> str:
    """Re-verify a self-describing artifact's stored manifest digest
    against a recomputation over its embedded manifest.

    The tamper refusal, shared by the shard merge path and the
    coordinator's submit validation: an artifact whose stored digest
    does not match its own manifest was corrupted or hand-edited and
    must not fold into any aggregate.  Returns the verified digest.
    """
    actual = manifest_digest(partial["manifest"])
    if actual != partial["manifest_digest"]:
        raise ValueError(
            f"{what}: stored manifest digest "
            f"{partial['manifest_digest'][:12]} does not match "
            f"its manifest ({actual[:12]}) — corrupt or tampered "
            f"artifact"
        )
    return actual


def partial_from_json(text: str) -> dict:
    """Parse a partial artifact, rejecting foreign or truncated
    documents."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(
            f"not a {PARTIAL_FORMAT} document "
            f"(got {type(payload).__name__})"
        )
    _validate_partial_shape(payload)
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

    def append_event(self, kind: str, data: dict) -> None:
        """Checkpoint an extension event (checksummed like any line).

        The coordinator journals its lease-op audit trail through
        this (``kind="lease-op"``).  :meth:`read` ignores kinds it
        does not aggregate, so extension lines never cost a resume
        anything; consumers that care (``WorkLedger.replay``) read
        them with :meth:`read_events`.
        """
        if kind in ("header", "cell", "failure"):
            raise ValueError(
                f"append_event cannot write reserved kind {kind!r}"
            )
        self._append(kind, data)

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
                    # Any other checksum-valid kind is an extension
                    # event (e.g. the coordinator's lease-op audit
                    # lines): not aggregated here, but not damage
                    # either — see read_events().
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

    @classmethod
    def read_events(cls, path, kind: str) -> list:
        """All checksum-valid extension events of one kind, in journal
        order (damaged lines are silently skipped, matching
        :meth:`read`).  This is how ``WorkLedger.replay`` recovers a
        coordinator's lease-op audit trail."""
        path = Path(path)
        cls._read_header(path)
        events = []
        with path.open("rb") as fh:
            fh.readline()  # header, already verified
            for raw in fh:
                verified = cls._verify_line(raw)
                if verified is not None and verified[0] == kind:
                    events.append(verified[1])
        return events


def merge_partials(
    partials: Sequence[dict], require_complete: bool = True
) -> SweepResults:
    """Fold shard partial artifacts into one sweep accumulator.

    Partials may arrive in any order.  Rejected loudly:

    - partials whose manifests differ (compared by digest, and each
      partial's stored digest is re-verified against its embedded
      manifest — a tampered artifact cannot slip in) or whose
      recorded SoC configurations differ (the workload manifest
      cannot see the hardware model);
    - inconsistent shard counts, repeated shard indices, a declared
      slice that disagrees with the deterministic :class:`ShardPlan`
      for the manifest, or a partial whose cells do not match its
      declared slice;
    - overlapping cells across partials;
    - gaps (missing cells), unless ``require_complete=False`` — the
      error names the absent shard indices so the operator knows
      which host to chase.

    The merged accumulator is bit-identical to running the whole
    sweep on one host (same :meth:`SweepResults.matrix`, same export
    bytes).
    """
    if not partials:
        raise ValueError("no partials to merge")
    reference = None
    for partial in partials:
        _validate_partial_shape(partial)
        verify_stored_digest(
            partial,
            f"shard "
            f"{_shard_label(partial['shard']['index'], partial['shard']['count'])}",
        )
        if reference is None:
            reference = partial
        elif partial["manifest_digest"] != reference["manifest_digest"]:
            raise ValueError(
                f"partials from different sweeps: manifest digest "
                f"{partial['manifest_digest'][:12]} (shard "
                f"{_shard_label(partial['shard']['index'], partial['shard']['count'])}) "
                f"vs {reference['manifest_digest'][:12]} (shard "
                f"{_shard_label(reference['shard']['index'], reference['shard']['count'])}); "
                f"shards are only mergeable when every host ran the "
                f"identical manifest"
            )
        if partial["shard"]["count"] != reference["shard"]["count"]:
            raise ValueError(
                f"partials from different shard plans: {partial['shard']['count']} "
                f"shards vs {reference['shard']['count']}"
            )
        if partial["soc"] != reference["soc"]:
            raise ValueError(
                f"partials from different SoC configurations (shard "
                f"{_shard_label(partial['shard']['index'], partial['shard']['count'])} "
                f"vs shard "
                f"{_shard_label(reference['shard']['index'], reference['shard']['count'])}); "
                f"every host must simulate the identical hardware "
                f"model"
            )
    seen_shards: Dict[int, int] = {}
    for partial in partials:
        idx = partial["shard"]["index"]
        seen_shards[idx] = seen_shards.get(idx, 0) + 1
    count = reference["shard"]["count"]
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
    manifest = reference["manifest"]
    specs = manifest_specs(manifest)
    plan = ShardPlan.from_manifest(manifest, count)
    acc = SweepResults(specs, list(manifest["policies"]))
    owner: Dict[int, int] = {}
    for partial in partials:
        shard = partial["shard"]
        # Hold every partial to the deterministic plan the digest
        # implies — a slice from a different tie-break (or a shard
        # index outside the plan) would still pass the cell-level
        # checks but corrupt the gap diagnostics below.
        if not 0 <= shard["index"] < count:
            raise ValueError(
                f"shard index {shard['index']} outside the "
                f"{count}-shard plan"
            )
        if sorted(shard["cell_indices"]) != list(plan.shard(shard["index"])):
            raise ValueError(
                f"shard {_shard_label(shard['index'], count)}: declared "
                f"slice does not match the deterministic plan for this "
                f"manifest (partial produced by a different planner?)"
            )
        try:
            cells = [cell_from_dict(c) for c in partial["cells"]]
            failures = [
                failure_from_dict(f)
                for f in partial.get("failures", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            # Keep corruption failures in the same ValueError family
            # as every other refusal (the CLI maps those to clean
            # one-line errors).
            raise ValueError(
                f"shard {_shard_label(shard['index'], count)}: "
                f"malformed cell payload ({exc!r})"
            ) from exc
        covered = sorted(
            [c.index for c in cells] + [f.index for f in failures]
        )
        if covered != sorted(shard["cell_indices"]):
            raise ValueError(
                f"shard {_shard_label(shard['index'], count)}: cells "
                f"present (succeeded + quarantined) do not match its "
                f"declared slice (truncated artifact?)"
            )
        for index in covered:
            if index in owner:
                raise ValueError(
                    f"cell {index} appears in shard "
                    f"{_shard_label(owner[index], count)} and "
                    f"shard {_shard_label(shard['index'], count)} "
                    f"— overlapping partials"
                )
            owner[index] = shard["index"]
        for cell in cells:
            acc.add(cell)
        for failure in failures:
            acc.add_failure(failure)
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
