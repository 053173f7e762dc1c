"""Command-line entry point: regenerate any paper figure or table.

Usage::

    python -m repro.cli fig1 [--trials 300]
    python -m repro.cli fig5 [--tasks 250] [--seeds 1,2,3]
    python -m repro.cli fig6 | fig7 | fig8
    python -m repro.cli table4
    python -m repro.cli validate
    python -m repro.cli sweep --list
    python -m repro.cli sweep --scenarios bursty-mixed,diurnal-light --workers 2
    python -m repro.cli sweep --scenarios 'bursty-*,ref-*-qos-h' --decisions
    python -m repro.cli sweep --scenarios bursty-mixed --out results/ --format json,csv
    python -m repro.cli sweep --scenarios bursty-mixed --shard 1/2 --out shards/
    python -m repro.cli sweep --scenarios bursty-mixed --out r/ --max-retries 3 --cell-timeout 600
    python -m repro.cli sweep --resume r/     # re-run only the missing cells
    python -m repro.cli sweep --scenarios bursty-mixed --out r/ --serve   # coordinator
    python -m repro.cli sweep --worker http://127.0.0.1:PORT              # worker(s)
    python -m repro.cli sweep --resume r/ --serve   # re-serve only the missing cells
    python -m repro.cli merge shards/ --out merged/
    python -m repro.cli all       # everything, EXPERIMENTS.md style

Sweep exit codes (stable, scriptable)::

    0   complete — every cell ran to a result (for --serve: every
        cell drained; for --worker: the coordinator reported drained)
    3   degraded — the sweep finished, but persistently failing
        cells were quarantined (re-run them with sweep --resume DIR)
    1   hard error — usage errors (a flag the mode does not read: see
        ``_MODES``), refused directories, unreadable artifacts;
        nothing was partially delivered
    86  a worker killed by an injected crash fault (--inject-faults
        'crash:...' in --worker mode treats the whole process as the
        disposable unit; the coordinator re-leases its cells)
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.experiments.fig1_motivation import format_fig1, run_fig1
from repro.experiments.fig5_sla import format_fig5, run_fig5
from repro.experiments.fig6_priority import format_fig6
from repro.experiments.fig7_stp import format_fig7
from repro.experiments.fig8_fairness import format_fig8
from repro.experiments.table4_area import format_table4
from repro.experiments.validation import format_validation, run_validation


def _parse_seeds(text: str) -> Tuple[int, ...]:
    """Parse ``--seeds 1,2,3`` — validated up front so empty or
    malformed values exit with a clean argparse error (prefixed with
    the subcommand, like every other argument error) instead of a
    traceback deep inside the run."""
    entries = [s.strip() for s in text.split(",")]
    if not any(entries):
        raise argparse.ArgumentTypeError(
            "expected comma-separated integer seeds, got an empty value"
        )
    seeds = []
    for entry in entries:
        if not entry:
            raise argparse.ArgumentTypeError(
                f"empty entry in seed list {text!r} "
                f"(trailing or doubled comma?)"
            )
        try:
            seed = int(entry)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid seed {entry!r}: expected an integer"
            ) from None
        if seed < 0:
            raise argparse.ArgumentTypeError(
                f"invalid seed {seed}: seeds must be >= 0"
            )
        seeds.append(seed)
    return tuple(seeds)


def _parse_names(text: str) -> Tuple[str, ...]:
    """Parse ``--scenarios a,b`` with the same up-front validation."""
    entries = [s.strip() for s in text.split(",")]
    if not any(entries):
        raise argparse.ArgumentTypeError(
            "expected comma-separated names, got an empty value"
        )
    if not all(entries):
        raise argparse.ArgumentTypeError(
            f"empty entry in name list {text!r} "
            f"(trailing or doubled comma?)"
        )
    return tuple(entries)


def _expand_scenario_patterns(names) -> List[str]:
    """Expand glob patterns in ``--scenarios`` against the registry.

    Entries containing ``*``, ``?`` or ``[`` are :mod:`fnmatch`
    patterns resolved against the registered scenario names (in
    registration order, so expansion is deterministic); plain names
    pass through untouched (unknown ones still fail with the
    registry's "unknown scenario" message).  Patterns matching
    nothing are collected and refused in one clean error.  The
    expanded list is deduplicated (overlapping patterns would
    otherwise trip the duplicate-label check downstream), preserving
    first occurrence.
    """
    import fnmatch

    from repro.scenarios import scenario_names

    known = scenario_names()
    out: List[str] = []
    unmatched: List[str] = []
    for name in names:
        if any(ch in name for ch in "*?["):
            matches = [
                n for n in known if fnmatch.fnmatchcase(n, name)
            ]
            if not matches:
                unmatched.append(name)
            out.extend(matches)
        else:
            out.append(name)
    if unmatched:
        raise SystemExit(
            f"sweep: pattern(s) "
            f"{', '.join(repr(p) for p in unmatched)} match no "
            f"registered scenarios (see sweep --list)"
        )
    return list(dict.fromkeys(out))


#: Supported sweep export format names.
_EXPORT_FORMATS = ("json", "csv")

#: ``sweep`` exit codes — documented in the module docstring and the
#: README's "Failure semantics" section; asserted in tests/test_cli.py.
EXIT_OK = 0
EXIT_HARD_ERROR = 1
EXIT_DEGRADED = 3


def _parse_fault_plan(text: str):
    """Parse ``--inject-faults`` (see repro.experiments.faults) with
    clean argparse errors for malformed specs."""
    from repro.experiments.faults import FaultPlan

    try:
        return FaultPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_formats(text: str) -> Tuple[str, ...]:
    """Parse ``--format json,csv`` (deduplicated, order preserved)."""
    names = _parse_names(text)
    unknown = [n for n in names if n not in _EXPORT_FORMATS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown format(s) {unknown}; choose from "
            f"{', '.join(_EXPORT_FORMATS)}"
        )
    return tuple(dict.fromkeys(names))


def _parse_shard(text: str) -> Tuple[int, int]:
    """Parse ``--shard I/N`` (1-based I) to a 0-based (index, count)."""
    match = re.fullmatch(r"\s*(\d+)\s*/\s*(\d+)\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"expected I/N (e.g. 1/4), got {text!r}"
        )
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1:
        raise argparse.ArgumentTypeError("shard count must be >= 1")
    if not 1 <= index <= count:
        raise argparse.ArgumentTypeError(
            f"shard index {index} outside 1..{count}"
        )
    return index - 1, count


def _export_filename(label: str) -> str:
    """Filesystem-safe stem for a scenario label (labels like
    ``Workload-A/QoS-M`` contain path separators)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", label)


def _ensure_out_dir(out_dir, force: bool, prog: str,
                    allow_non_empty: bool = False,
                    create: bool = True):
    """Vet an export directory and, unless ``create=False``, create
    it; never delete anything.

    A non-empty directory is refused unless ``force``.  Callers vet
    *before* the run, so a refusal cannot discard computed results;
    :func:`_clean_out_dir` removes prior artifacts once the new
    results exist.  ``allow_non_empty`` skips the emptiness check
    (shards share one directory and guard only their own file).
    ``create=False`` vets without mkdir, so a run that fails later
    leaves no stray empty directory (the export writer creates it).
    """
    from pathlib import Path

    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise SystemExit(
            f"{prog}: --out {out} exists and is not a directory"
        )
    if out.exists() and not force and not allow_non_empty:
        existing = sorted(p.name for p in out.iterdir())
        if existing:
            from repro.experiments.sharding import JOURNAL_NAME

            hint = "pass --force to overwrite"
            if JOURNAL_NAME in existing:
                hint = (
                    f"an interrupted sweep left a checkpoint journal "
                    f"here — continue it with "
                    f"'sweep --resume {out}', or pass --force to "
                    f"start over"
                )
            raise SystemExit(
                f"{prog}: output directory {out} already contains "
                f"{len(existing)} entr{'y' if len(existing) == 1 else 'ies'} "
                f"(e.g. {existing[0]!r}); {hint}"
            )
    if create:
        out.mkdir(parents=True, exist_ok=True)
    return out


def _clean_out_dir(out_dir) -> None:
    """Remove the prior export artifacts this tool itself wrote.

    A ``--force`` re-export with different scenarios must not leave
    stale files mixed into the new artifact set — but it must also
    not delete unrelated files (``--out .`` would otherwise eat any
    JSON/CSV in the working directory).  The prior ``manifest.json``
    names exactly the scenarios the previous export wrote, so
    deletion is scoped to those stems plus the manifest itself;
    without a parseable prior manifest nothing is removed (same-named
    files are still overwritten by the write that follows).
    Deliberately called only once the new results are in hand —
    never before a potentially long (and fallible) sweep or merge,
    which would risk destroying the old artifacts and producing
    nothing.
    """
    import json
    from pathlib import Path

    out = Path(out_dir)
    _remove_journal(out)
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return
    try:
        manifest = json.loads(manifest_path.read_text())
        labels = [
            entry["label"] for entry in manifest["scenarios"]
        ]
    except (ValueError, KeyError, TypeError):
        return
    for label in labels:
        for fmt in _EXPORT_FORMATS:
            stale = out / f"{_export_filename(label)}.{fmt}"
            if stale.is_file():
                stale.unlink()
    manifest_path.unlink()


def _remove_journal(out) -> None:
    """Delete the checkpoint journal in directory ``out``, if any.

    The journal is this tool's own scaffolding; a ``--force`` restart
    abandons the interrupted sweep it belongs to.
    """
    from repro.experiments.sharding import JOURNAL_NAME

    journal = out / JOURNAL_NAME
    if journal.is_file():
        journal.unlink()


def _check_export_stems(labels) -> None:
    """Refuse scenario labels whose filesystem stems collide (or
    shadow the reserved ``manifest.json``).

    Stems depend only on the labels, so callers with a long run ahead
    (``sweep --out``) check *before* simulating — a collision must
    not be able to discard completed results.
    """
    stems = {"manifest": "(the reserved manifest.json)"}
    for label in labels:
        stem = _export_filename(label)
        if stem in stems:
            raise SystemExit(
                f"sweep: scenario labels {stems[stem]!r} and "
                f"{label!r} both export as {stem!r}; rename one "
                f"to avoid overwriting its files"
            )
        stems[stem] = label


def _write_sweep_exports(
    matrix, specs, out_dir, formats, policies=None, clean=False
) -> List[str]:
    """Write per-scenario export files (plus the cell manifest).

    One ``<scenario>.<format>`` file per scenario per requested
    format, and a ``manifest.json`` describing every cell of the
    sweep.  Exports are deterministic, so a streaming (``--workers
    N``) run writes byte-identical files to a serial one, and a
    sharded run merged back (``merge``) writes byte-identical files
    to an unsharded run — ``scripts/ci.sh`` gates on exactly that.
    ``clean`` (the ``--force`` path) removes prior artifacts — only
    after the stem validation below, so a refused export can never
    have already destroyed the old files.

    Returns:
        The written paths, in write order.
    """
    import json
    from pathlib import Path

    from repro.experiments.results import cell_manifest
    from repro.reporting import sweep_to_csv, sweep_to_json

    exporters = {"json": sweep_to_json, "csv": sweep_to_csv}
    _check_export_stems(matrix)
    out = Path(out_dir)
    if clean:
        _clean_out_dir(out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for label, cell in matrix.items():
        for fmt in formats:
            path = out / f"{_export_filename(label)}.{fmt}"
            path.write_text(exporters[fmt]({label: cell}))
            written.append(str(path))
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(
            cell_manifest(specs, policies), indent=2, sort_keys=True
        ) + "\n"
    )
    written.append(str(manifest_path))
    return written


def _failure_report(acc, out_dir=None) -> str:
    """Human summary of a degraded sweep: what was quarantined, why,
    and how to heal it."""
    lines = [
        f"sweep degraded: {len(acc)} of {acc.expected} cells "
        f"completed, {len(acc.failures())} quarantined:"
    ]
    for f in acc.failures():
        lines.append(
            f"  cell {f.index:>4d}  {f.label}/{f.policy}/seed {f.seed}"
            f"  [{f.kind}] after {f.attempts} attempt(s): {f.message}"
        )
    if out_dir is not None:
        lines.append(
            f"completed cells are checkpointed; re-run the rest with: "
            f"sweep --resume {out_dir}"
        )
    return "\n".join(lines)


def _supervised_sweep(specs, args, out=None, manifest=None, acc=None):
    """Run the cells of ``specs`` that ``acc`` still lacks under
    supervision, journaling into ``out`` when exporting.  Shared by
    the fresh-sweep and resume paths.

    Returns ``(accumulator, discard)`` for :func:`_finish_sweep`:
    the journal is closed but left on disk, and ``discard`` deletes
    it (``None`` without ``out``).
    """
    from repro.config import DEFAULT_SOC
    from repro.experiments.results import cell_manifest
    from repro.experiments.sharding import CellJournal, manifest_policies
    from repro.reporting import decision_summary

    supervision = args.supervision
    plan = supervision.fault_plan
    journal = None
    on_cell = on_failure = None
    if out is not None:
        if manifest is None:
            manifest = cell_manifest(specs)
        out.mkdir(parents=True, exist_ok=True)
        if args.force and acc is None:
            # Only a fresh sweep abandons the journal; a resume
            # appends to the one it was loaded from.
            _remove_journal(out)
        try:
            journal = CellJournal.open(out, manifest, DEFAULT_SOC)
        except ValueError as exc:
            raise SystemExit(f"sweep: {exc}") from exc

        def on_cell(cell):
            journal.append_cell(
                cell,
                corrupt=plan.corrupts(cell.index)
                if plan is not None else False,
            )

        def on_failure(failure, exc):
            journal.append_failure(failure)
    policies = None
    if manifest is not None:
        try:
            policies = manifest_policies(manifest)
        except ValueError as exc:
            raise SystemExit(f"sweep: {exc}") from exc
    try:
        acc = args.runner.run_supervised(
            specs, policies, supervision=supervision, acc=acc,
            on_cell=on_cell, on_failure=on_failure,
        )
    finally:
        if journal is not None:
            journal.close()
    if args.decisions:
        print(decision_summary(acc.cells()), file=sys.stderr)
    return acc, (journal.discard if journal is not None else None)


def _finish_sweep(acc, args, out, discard=None) -> Tuple[str, int]:
    """The one ending of the local, resume and serve paths.

    A degraded sweep returns the failure report (exit 3) and keeps
    its journal for ``sweep --resume``.  A complete one deletes the
    journal (``discard``) — scaffolding must not make the export
    directory differ from a fault-free run's bytes — writes the
    exports when ``out`` is set, and returns the summary (exit 0).
    """
    from repro.reporting import per_scenario_summary

    if not acc.complete:
        return _failure_report(acc, out_dir=out), EXIT_DEGRADED
    if discard is not None:
        discard()
    matrix = acc.matrix()
    if out is not None:
        written = _write_sweep_exports(
            matrix, acc.specs, out, args.format or _EXPORT_FORMATS,
            policies=acc.policies, clean=args.force,
        )
        print(
            f"sweep: wrote {len(written)} file(s) to {out}",
            file=sys.stderr,
        )
    return per_scenario_summary(matrix), EXIT_OK


def _run_sweep_list(args) -> Tuple[str, int]:
    """``sweep --list``: the registered scenarios."""
    from repro.scenarios import format_scenario_table

    return format_scenario_table(), EXIT_OK


def _sweep_specs(args) -> list:
    """The scenarios a fresh sweep runs: ``--scenarios`` expanded
    against the registry, with the ``--tasks``/``--seeds`` overrides
    applied and the labels checked unique."""
    from dataclasses import replace

    from repro.experiments.runner import check_unique_labels
    from repro.scenarios import get_scenario

    if args.scenarios is None:
        raise SystemExit(
            "sweep: pass --scenarios NAME[,NAME...], --resume DIR or "
            "--list (e.g. --scenarios bursty-mixed,diurnal-light)"
        )
    overrides = {}
    if args.tasks is not None:
        overrides["num_tasks"] = args.tasks
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    specs = []
    for name in _expand_scenario_patterns(args.scenarios):
        try:
            spec = get_scenario(name)
        except KeyError as exc:
            raise SystemExit(f"sweep: {exc.args[0]}") from exc
        try:
            specs.append(replace(spec, **overrides) if overrides else spec)
        except ValueError as exc:
            raise SystemExit(f"sweep: bad override for {name}: {exc}") from exc
    # Usage errors get clean one-liners; errors raised *inside* the
    # simulation keep their tracebacks.
    try:
        check_unique_labels(specs)
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}") from exc
    return specs


def _run_sweep_local(args) -> Tuple[str, int]:
    """``sweep --scenarios ...``: run every cell here, optionally
    exporting into ``--out DIR``."""
    specs = _sweep_specs(args)
    out = None
    if args.out is not None:
        # Vet the destination and export names BEFORE the
        # (potentially long) sweep so a refusal cannot discard
        # completed results.  The directory itself is created by the
        # supervised run (the checkpoint journal needs it): an
        # interrupted sweep deliberately leaves the journal behind
        # for ``sweep --resume``.
        out = _ensure_out_dir(args.out, args.force, "sweep",
                              create=False)
        _check_export_stems(spec.label for spec in specs)
    # Every sweep runs supervised: cell failures are retried with
    # backoff and — when persistent — quarantined, so one poison cell
    # degrades the sweep (exit 3) instead of aborting it.
    acc, discard = _supervised_sweep(specs, args, out=out)
    return _finish_sweep(acc, args, out, discard)


def _run_sweep_shard(args) -> Tuple[str, int]:
    """``sweep --shard I/N``: run one shard, write its partial artifact.

    Every shard of the same sweep must be invoked with identical
    scenarios and overrides (same manifest, hence same digest) —
    ``merge`` refuses partials whose digests differ.  Partial files
    are named ``partial-I-of-N.json`` (1-based, matching the --shard
    notation) so any number of shards can share one directory.

    Shards run supervised too: a quarantined cell lands in the
    partial's ``failures`` list (and exits 3) instead of stranding
    the whole shard — the merge then points at the failures rather
    than mistaking them for an absent host.
    """
    from repro.experiments.results import cell_manifest
    from repro.experiments.sharding import partial_to_json, run_shard

    shard_index, num_shards = args.shard
    manifest = cell_manifest(_sweep_specs(args))
    # Vet only; the directory is created just before the write so a
    # shard failing mid-run leaves no stray empty directory behind.
    out = _ensure_out_dir(args.out, args.force, "sweep",
                          allow_non_empty=True, create=False)
    path = out / f"partial-{shard_index + 1}-of-{num_shards}.json"
    if path.exists() and not args.force:
        raise SystemExit(
            f"sweep: {path} already exists; pass --force to overwrite"
        )
    partial = run_shard(
        manifest, shard_index, num_shards,
        runner=args.runner, supervision=args.supervision,
    )
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(partial_to_json(partial))
    shard = partial["shard"]
    print(
        f"sweep: wrote shard partial {path}",
        file=sys.stderr,
    )
    failed = len(partial["failures"])
    status = (
        f"shard {shard_index + 1}/{num_shards}: "
        f"{len(partial['cells'])} of {len(manifest['cells'])} cells "
        f"(cost {shard['cost']}) in {shard['wall_seconds']:.2f}s, "
        f"mode={shard['mode']}\n"
        f"manifest digest {partial['manifest_digest'][:12]}"
    )
    if failed:
        status += (
            f"\n{failed} cell(s) quarantined in this shard (recorded "
            f"in {path.name}); re-run the shard with --force after "
            f"fixing, or heal the merge with sweep --resume"
        )
        return status, EXIT_DEGRADED
    return status, EXIT_OK


def _load_resume_dir(args):
    """``sweep --resume DIR``: the directory and what it holds,
    ``(out, manifest, specs, acc)`` (see
    :func:`~repro.experiments.sharding.load_sweep_dir`), with every
    refusal a one-line exit."""
    from pathlib import Path

    from repro.experiments.sharding import load_sweep_dir

    out = Path(args.resume)
    if not out.is_dir():
        raise SystemExit(f"sweep: --resume {out} is not a directory")
    try:
        return (out, *load_sweep_dir(out))
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}") from exc


def _run_sweep_resume(args) -> Tuple[str, int]:
    """``sweep --resume DIR``: finish an interrupted or degraded sweep.

    Reconstructs the sweep from what DIR holds, then re-runs *only*
    the still-missing cells (quarantined failures included) and
    writes the full exports.  By retry-determinism the final exports
    are byte-identical to an uninterrupted fault-free sweep.
    """
    out, manifest, specs, acc = _load_resume_dir(args)
    print(
        f"sweep: resuming {out}: {len(acc)} of {acc.expected} cells "
        f"checkpointed, {len(acc.failed_indices())} quarantined, "
        f"re-running {len(acc.missing_indices())}",
        file=sys.stderr,
    )
    acc, discard = _supervised_sweep(
        specs, args, out=out, manifest=manifest, acc=acc,
    )
    return _finish_sweep(acc, args, out, discard)


def _run_sweep_serve(args) -> Tuple[str, int]:
    """``sweep --serve``: run the sweep as a coordinator service.

    Instead of executing cells locally, serve them over HTTP to any
    number of ``sweep --worker URL`` processes: lease cost-balanced
    batches, expire leases whose heartbeats stop (re-leasing the
    work), fold validated submissions into the accumulator
    incrementally, and journal every accepted cell so a killed
    coordinator resumes with ``sweep --resume DIR --serve`` re-leasing
    only the missing cells.  Once drained, writes the same
    byte-identical exports a local run writes (and the same exit
    codes: 0 complete, 3 degraded).

    With ``--resume DIR`` it re-serves the cells DIR still lacks.
    """
    from repro.config import DEFAULT_SOC
    from repro.experiments.execution import (
        Coordinator,
        CoordinatorServer,
    )
    from repro.experiments.results import cell_manifest
    from repro.reporting import decision_summary

    acc = None
    if args.resume is not None:
        out, manifest, specs, acc = _load_resume_dir(args)
        print(
            f"sweep: re-serving {out}: {len(acc)} of {acc.expected} "
            f"cells checkpointed, "
            f"{len(acc.failed_indices())} quarantined, re-leasing "
            f"{len(acc.missing_indices())}",
            file=sys.stderr,
        )
    else:
        specs = _sweep_specs(args)
        out = _ensure_out_dir(args.out, args.force, "sweep")
        _check_export_stems(spec.label for spec in specs)
        if args.force:
            _remove_journal(out)
        manifest = cell_manifest(specs)
    try:
        coordinator = Coordinator(
            manifest,
            soc=DEFAULT_SOC,
            lease_ttl=args.lease_ttl,
            max_lease_cost=args.lease_cost,
            out_dir=out,
            acc=acc,
        )
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}") from exc
    try:
        server = CoordinatorServer(
            coordinator, host=args.host, port=args.port
        )
    except OSError as exc:
        coordinator.close()
        raise SystemExit(
            f"sweep: cannot bind {args.host}:{args.port} ({exc})"
        ) from exc
    server.start()
    # Discovery file: scripts (and the two-terminal quickstart) read
    # the bound URL from here instead of parsing stderr.  The server
    # owns it — stop() removes it on every exit path, orderly or not;
    # like the journal, scaffolding must not make the export
    # directory differ from a fault-free local run's.
    server.publish_discovery(out / "coordinator.json")
    print(
        f"sweep: coordinator serving "
        f"{len(acc.missing_indices()) if acc else len(manifest['cells'])} "
        f"cell(s) at {server.url}",
        file=sys.stderr,
    )
    print(
        f"sweep: start workers with: python -m repro.cli sweep "
        f"--worker {server.url}",
        file=sys.stderr,
    )
    interrupted = False
    last_report = time.monotonic()
    try:
        while not coordinator.drained:
            time.sleep(0.2)
            coordinator.expire_leases()
            now = time.monotonic()
            if now - last_report >= 5.0:
                print(coordinator.progress_line(), file=sys.stderr)
                last_report = now
    except KeyboardInterrupt:
        interrupted = True
    finally:
        server.stop()
        coordinator.close()
    acc = coordinator.acc
    if interrupted:
        raise SystemExit(
            f"sweep: coordinator interrupted with {len(acc)} of "
            f"{acc.expected} cells done; accepted work is "
            f"journaled — continue with: sweep --resume {out} --serve"
        )
    if args.decisions:
        print(decision_summary(acc.cells()), file=sys.stderr)
    return _finish_sweep(acc, args, out, coordinator.discard_journal)


def _run_sweep_worker(args) -> Tuple[str, int]:
    """``sweep --worker URL``: drain a coordinator as one worker.

    Bootstraps the manifest from the coordinator (refusing a SoC
    mismatch), then leases, executes and submits until the sweep is
    drained.  Transport errors are retried with backoff (a
    coordinator restart is survivable); a refused submission (the
    lease expired and was re-leased) drops the orphaned results and
    continues.  Exit 0 = drained; hard errors exit 1; an injected
    ``crash`` fault kills the process with exit 86 (the whole worker
    process is the disposable unit in this mode — its leases expire
    and the coordinator re-issues them).
    """
    from dataclasses import replace

    from repro.config import DEFAULT_SOC
    from repro.experiments.execution import (
        HttpTransport,
        SweepWorker,
        TransportError,
    )
    from repro.experiments.faults import activate_in_worker_process

    # NB: the fault plan deliberately does NOT ride Supervision here —
    # run_supervised installs a supervision plan with the
    # process-fatal kinds suppressed (this process would survive its
    # own crash fault).  Worker mode arms the plan process-level
    # instead: see activate_in_worker_process.
    supervision = replace(args.supervision, fault_plan=None)
    if args.inject_faults is not None:
        activate_in_worker_process(args.inject_faults)
    try:
        transport = HttpTransport(args.worker)
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}") from exc
    worker = SweepWorker(
        transport,
        runner=args.runner,
        soc=DEFAULT_SOC,
        supervision=supervision,
    )
    try:
        summary = worker.run()
    except (TransportError, ValueError) as exc:
        raise SystemExit(f"sweep: {exc}") from exc
    return (
        f"worker {summary['worker_id']}: coordinator drained — "
        f"{summary['leases']} lease(s), {summary['cells']} cell(s) "
        f"completed, {summary['failures']} quarantined, "
        f"{summary['refused']} submission(s) refused"
    ), EXIT_OK


def _run_merge(args) -> Tuple[str, int]:
    """The ``merge`` subcommand: fold shard partials, print the same
    per-scenario summary a one-host sweep prints, optionally write
    the byte-identical export files."""
    from pathlib import Path

    from repro.experiments.sharding import merge_partials, partial_from_json
    from repro.reporting import per_scenario_summary

    files = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("partial-*.json"))
            if not found:
                raise SystemExit(
                    f"merge: no partial-*.json files in {path}"
                )
            files.extend(found)
        elif path.is_file():
            files.append(path)
        else:
            raise SystemExit(f"merge: {path} does not exist")
    if args.out is not None:
        # Writing (and --force cleaning) into a directory that holds
        # the input partials would destroy them mid-merge.
        out_resolved = Path(args.out).resolve()
        inside = [p for p in files if p.resolve().parent == out_resolved]
        if inside:
            raise SystemExit(
                f"merge: --out {args.out} contains input partial "
                f"{inside[0].name}; write the merged exports to a "
                f"different directory"
            )
    partials = []
    for path in files:
        try:
            partials.append(partial_from_json(path.read_text()))
        except (OSError, ValueError) as exc:
            # OSError covers unreadable files (permissions, a path
            # that is a device/binary blob raising on decode...);
            # both map to the same clean one-line refusal.
            raise SystemExit(f"merge: {path}: {exc}") from exc
    try:
        acc = merge_partials(partials)
    except ValueError as exc:
        raise SystemExit(f"merge: {exc}") from exc
    if args.out is not None:
        # Vetted only now that the inputs parsed and merged — and not
        # created yet (the export writer mkdirs after its own stem
        # check), so no refusal path can leave a stray empty output
        # directory behind.
        _ensure_out_dir(args.out, args.force, "merge", create=False)
    matrix = acc.matrix()
    print(
        f"merge: folded {len(partials)} partial(s), {len(acc)} cells, "
        f"manifest digest {partials[0]['manifest_digest'][:12]}",
        file=sys.stderr,
    )
    if args.out is not None:
        written = _write_sweep_exports(
            matrix, acc.specs, args.out,
            args.format or _EXPORT_FORMATS,
            policies=acc.policies,
            clean=args.force,
        )
        print(
            f"merge: wrote {len(written)} file(s) to {args.out}",
            file=sys.stderr,
        )
    return per_scenario_summary(matrix), EXIT_OK


class _Mode(NamedTuple):
    """A ``sweep``/``merge`` mode: its runner, every flag the runner
    reads, and how a refusal names the mode and says why."""

    runner: Callable[[argparse.Namespace], Tuple[str, int]]
    flags: Tuple[str, ...]
    label: str
    why: str


_SPEC = ("--scenarios", "--tasks", "--seeds")
_RUN = ("--workers", "--max-retries", "--cell-timeout", "--retry-backoff",
        "--inject-faults")
_SERVE = ("--host", "--port", "--lease-ttl", "--lease-cost")
_EXPORT = ("--format", "--force", "--decisions")
#: Flags read only with ``--out``, in the modes that read ``--out``.
_WITH_OUT = ("--format", "--force", "--shard", "--serve")
_SERVE_ONLY = "only --serve reads it"

#: The one table of ``sweep``/``merge`` flags (README prints it):
#: :func:`_check_flags` refuses any flag outside its mode's entry.
_MODES = {
    "list": _Mode(_run_sweep_list, ("--list",), "--list",
                  "it only prints the scenario registry"),
    "local": _Mode(_run_sweep_local, ("--out",) + _SPEC + _RUN + _EXPORT,
                   "a local sweep", _SERVE_ONLY),
    "shard": _Mode(_run_sweep_shard,
                   ("--shard", "--out", "--force") + _SPEC + _RUN, "--shard",
                   "a shard writes one JSON partial carrying every "
                   "cell's counters; merge the shards to export them"),
    "serve": _Mode(_run_sweep_serve,
                   ("--serve", "--out") + _SPEC + _SERVE + _EXPORT, "--serve",
                   "a coordinator leases its cells to 'sweep --worker' "
                   "processes, which run them"),
    "resume": _Mode(_run_sweep_resume, ("--resume",) + _RUN + _EXPORT,
                    "--resume", "the sweep's manifest already pins the "
                    "scenarios and overrides, and DIR gets the exports"),
    "resume+serve": _Mode(_run_sweep_serve,
                          ("--resume", "--serve") + _SERVE + _EXPORT,
                          "--resume --serve", "DIR pins the sweep and gets "
                          "its exports; 'sweep --worker' runs its cells"),
    "worker": _Mode(_run_sweep_worker, ("--worker",) + _RUN, "--worker",
                    "the coordinator owns the manifest, the overrides, "
                    "the leases and the exports"),
    "merge": _Mode(_run_merge, ("--out", "--format", "--force"), "merge", ""),
}

#: Defaults of the ``sweep``/``merge`` flags.  The parser leaves an
#: absent flag ``None``, so a given one is detectable;
#: :func:`_check_flags` fills these in after its check.
_DEFAULTS = {
    "workers": 1, "host": "127.0.0.1", "port": 0, "lease_ttl": 30.0,
    "max_retries": 2, "retry_backoff": 0.5,
    "decisions": False, "force": False, "list": False, "serve": False,
}


def _mode_of(args) -> str:
    """The ``_MODES`` key an invocation selects."""
    if args.command == "merge":
        return "merge"
    if args.list:
        return "list"
    if args.worker is not None:
        return "worker"
    if args.resume is not None:
        return "resume+serve" if args.serve else "resume"
    if args.serve:
        return "serve"
    return "local" if args.shard is None else "shard"


def _check_flags(args, mode: str) -> None:
    """Refuse, in one line, a flag ``mode`` does not read or a value
    that cannot work; fill in the defaults; and build the cell-running
    modes' ``ParallelRunner`` and ``Supervision`` as ``args.runner``
    and ``args.supervision``."""
    import math

    from repro.experiments.parallel import ParallelRunner, Supervision

    spec, prog = _MODES[mode], args.command
    given = [
        "--" + dest.replace("_", "-")
        for dest, value in vars(args).items()
        if value is not None and dest not in ("command", "paths")
    ]
    for flag in given:
        if flag not in spec.flags:
            why = _SERVE_ONLY if flag in _SERVE else spec.why
            raise SystemExit(
                f"{prog}: {flag} has no effect with {spec.label} ({why})"
            )
        if flag in _WITH_OUT and "--out" in spec.flags \
                and "--out" not in given:
            raise SystemExit(f"{prog}: {flag} requires --out DIR")
    for dest, value in _DEFAULTS.items():
        if getattr(args, dest, value) is None:
            setattr(args, dest, value)
    if "--workers" in given and args.workers < 0:
        raise SystemExit("sweep: --workers must be >= 0 (0 = one per CPU)")
    if "--lease-ttl" in given and not 0 < args.lease_ttl < math.inf:
        raise SystemExit("sweep: --lease-ttl must be positive and finite")
    if "--lease-cost" in given and args.lease_cost < 1:
        raise SystemExit("sweep: --lease-cost must be >= 1")
    if "--port" in given and not 0 <= args.port <= 65535:
        raise SystemExit("sweep: --port must be in 0..65535")
    if "--max-retries" not in spec.flags:
        return
    # The worker count rides on the runner, so the local, shard,
    # resume and coordinator-worker paths pick it up identically.
    args.runner = ParallelRunner(workers=args.workers or None)
    try:
        args.supervision = Supervision(
            max_retries=args.max_retries,
            cell_timeout=args.cell_timeout,
            backoff_base=args.retry_backoff,
            fault_plan=args.inject_faults,
        )
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}") from exc
    if args.cell_timeout is not None and args.runner.workers == 1:
        raise SystemExit(
            "sweep: --cell-timeout needs --workers >= 2 (a serial "
            "cell cannot be interrupted)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MoCA (HPCA 2023) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig1 = sub.add_parser("fig1", help="motivation: co-location slowdown")
    p_fig1.add_argument("--trials", type=int, default=300)
    p_fig1.add_argument("--seed", type=int, default=0)

    for name in ("fig5", "fig6", "fig7", "fig8"):
        p = sub.add_parser(name, help=f"paper {name} matrix")
        p.add_argument("--tasks", type=int, default=250)
        p.add_argument("--seeds", type=_parse_seeds, default=(1, 2, 3))
        p.add_argument(
            "--workers", type=int, default=1,
            help="worker processes for the matrix cells "
                 "(1 = serial, 0 = one per CPU)",
        )

    sub.add_parser("table4", help="area breakdown")
    sub.add_parser("validate", help="latency-model validation")
    sub.add_parser("models", help="list the benchmark DNN zoo (Table III)")

    p_sweeps = sub.add_parser(
        "sweeps",
        help="SoC configuration sensitivity sweeps (appendix F) — "
             "unrelated to the scenario-registry 'sweep' command",
    )
    p_sweeps.add_argument("--tasks", type=int, default=80)
    p_sweeps.add_argument("--seeds", type=_parse_seeds, default=(1, 2))

    p_sweep = sub.add_parser(
        "sweep",
        help="run named scenario-registry entries across all policies "
             "(not the SoC 'sweeps' command)",
        description=(
            "Run scenarios from the registry (repro.scenarios) across "
            "the four policies and print a per-scenario summary table. "
            "Serial (--workers 1) and parallel (--workers N) runs are "
            "bit-identical; --list shows the registered scenarios."
        ),
    )
    p_sweep.add_argument(
        "--scenarios", type=_parse_names,
        metavar="NAME[,NAME...]",
        help="comma-separated registry names and/or glob patterns "
             "resolved against the registry, e.g. bursty-*,"
             "ref-*-qos-h (see --list)",
    )
    p_sweep.add_argument(
        "--decisions", action="store_true", default=None,
        help="print per-cell decision/epoch telemetry (plans "
             "emitted/applied/no-op, epoch-cache reuse ratio) to "
             "stderr",
    )
    p_sweep.add_argument(
        "--workers", type=int,
        help="worker processes for the matrix cells "
             "(1 = serial, 0 = one per CPU)",
    )
    p_sweep.add_argument(
        "--tasks", type=int, default=None,
        help="override every scenario's num_tasks",
    )
    p_sweep.add_argument(
        "--seeds", type=_parse_seeds, default=None,
        help="override every scenario's seeds (comma-separated)",
    )
    p_sweep.add_argument(
        "--list", action="store_true", default=None,
        help="list registered scenarios and exit",
    )
    p_sweep.add_argument(
        "--out", default=None, metavar="DIR",
        help="write per-scenario export files (plus manifest.json) "
             "into DIR",
    )
    p_sweep.add_argument(
        "--format", type=_parse_formats, metavar="FMT[,FMT...]",
        help="export formats for --out: json,csv (default: both); "
             "requires --out",
    )
    p_sweep.add_argument(
        "--shard", type=_parse_shard, default=None, metavar="I/N",
        help="run only shard I of N (1-based; cost-balanced, "
             "deterministic) and write a partial-I-of-N.json "
             "artifact into --out DIR; merge the partials with the "
             "'merge' command",
    )
    p_sweep.add_argument(
        "--force", action="store_true", default=None,
        help="replace the prior export artifacts in --out DIR (the "
             "files its manifest.json names) instead of refusing",
    )
    p_sweep.add_argument(
        "--resume", default=None, metavar="DIR",
        help="finish an interrupted or degraded sweep: fold DIR's "
             "checkpoint journal and/or shard partials, re-run only "
             "the missing cells, and write the full exports "
             "(byte-identical to an uninterrupted run); mutually "
             "exclusive with --scenarios/--shard and the scenario "
             "overrides",
    )
    p_sweep.add_argument(
        "--serve", action="store_true", default=None,
        help="serve this sweep's cells to 'sweep --worker URL' "
             "processes over HTTP instead of executing locally; "
             "requires --out DIR (receives the lease journal, "
             "coordinator.json and the final exports); combine with "
             "--resume DIR to re-serve only the missing cells",
    )
    p_sweep.add_argument(
        "--worker", metavar="URL",
        help="run as a worker draining the coordinator at URL "
             "(printed by sweep --serve and written to its "
             "DIR/coordinator.json); exits 0 once the sweep is "
             "drained",
    )
    p_sweep.add_argument(
        "--host", metavar="ADDR",
        help="bind address for --serve (default 127.0.0.1)",
    )
    p_sweep.add_argument(
        "--port", type=int, metavar="PORT",
        help="bind port for --serve (default 0 = ephemeral; the "
             "bound port is printed and written to coordinator.json)",
    )
    p_sweep.add_argument(
        "--lease-ttl", type=float, metavar="SECONDS",
        help="--serve: seconds a lease survives between worker "
             "heartbeats before its cells are re-leased to other "
             "workers (default 30)",
    )
    p_sweep.add_argument(
        "--lease-cost", type=int, default=None, metavar="COST",
        help="--serve: cap on a single lease's summed cell cost "
             "(default: the manifest's total cost spread over 8 "
             "batches, LPT-balanced)",
    )
    p_sweep.add_argument(
        "--max-retries", type=int, metavar="N",
        help="retry attempts per cell before quarantining it "
             "(default 2; 0 = no retries)",
    )
    p_sweep.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit per cell; an overrunning cell's "
             "worker is killed and the cell retried/quarantined "
             "(default: none; needs --workers >= 2)",
    )
    p_sweep.add_argument(
        "--retry-backoff", type=float, metavar="SECONDS",
        help="base of the exponential retry backoff "
             "(delay = SECONDS * 2^attempt; default 0.5)",
    )
    p_sweep.add_argument(
        "--inject-faults", type=_parse_fault_plan, default=None,
        metavar="SPEC",
        help="deterministic fault injection for testing failure "
             "paths, e.g. 'crash:cells=2', "
             "'transient:rate=0.25:seed=7:attempts=all', "
             "'hang:cells=1:seconds=30'; rules separated by ';' "
             "(see repro.experiments.faults)",
    )

    p_merge = sub.add_parser(
        "merge",
        help="merge sweep shard partials back into one result set",
        description=(
            "Fold partial-*.json artifacts written by "
            "'sweep --shard I/N --out DIR' (any order, any mix of "
            "directories and files) back into the full sweep. "
            "Partials from different manifests, overlapping cells "
            "and gaps are refused. The printed summary and the "
            "--out export files are byte-identical to running the "
            "sweep unsharded on one host."
        ),
    )
    p_merge.add_argument(
        "paths", nargs="+", metavar="DIR_OR_FILE",
        help="directories (scanned for partial-*.json) and/or "
             "partial files",
    )
    p_merge.add_argument(
        "--out", default=None, metavar="DIR",
        help="write the merged per-scenario export files (plus "
             "manifest.json) into DIR",
    )
    p_merge.add_argument(
        "--format", type=_parse_formats, metavar="FMT[,FMT...]",
        help="export formats for --out: json,csv (default: both); "
             "requires --out",
    )
    p_merge.add_argument(
        "--force", action="store_true", default=None,
        help="replace the prior export artifacts in --out DIR (the "
             "files its manifest.json names) instead of refusing",
    )

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--tasks", type=int, default=250)
    p_all.add_argument("--seeds", type=_parse_seeds, default=(1, 2, 3))
    p_all.add_argument("--trials", type=int, default=300)
    p_all.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the matrix cells "
             "(1 = serial, 0 = one per CPU)",
    )
    return parser


def _format_models() -> str:
    """Table III as text: the zoo with sizes and workload sets."""
    from repro.models.zoo import WORKLOAD_SETS, build_model, model_names

    lines = [
        f"{'model':<12s}{'domain':<24s}{'layers':>7s}{'GMACs':>8s}"
        f"{'params MB':>11s}{'sets':>7s}"
    ]
    for name in model_names():
        net = build_model(name)
        sets = "".join(
            s for s, members in WORKLOAD_SETS.items() if name in members
        )
        lines.append(
            f"{name:<12s}{net.domain:<24s}{len(net):>7d}"
            f"{net.total_macs / 1e9:>8.2f}"
            f"{net.total_weight_bytes / 1e6:>11.2f}{sets:>7s}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.time()
    exit_code = EXIT_OK

    if args.command == "fig1":
        print(format_fig1(run_fig1(trials=args.trials, seed=args.seed)))
    elif args.command in ("fig5", "fig6", "fig7", "fig8"):
        matrix = run_fig5(
            num_tasks=args.tasks, seeds=args.seeds, workers=args.workers
        )
        formatter = {
            "fig5": format_fig5,
            "fig6": format_fig6,
            "fig7": format_fig7,
            "fig8": format_fig8,
        }[args.command]
        print(formatter(matrix))
    elif args.command == "table4":
        print(format_table4())
    elif args.command == "validate":
        print(format_validation(run_validation()))
    elif args.command == "models":
        print(_format_models())
    elif args.command in ("sweep", "merge"):
        # Exit codes per the module docstring: 0 complete, 3 degraded,
        # 1 (a SystemExit message) hard error.
        mode = _mode_of(args)
        _check_flags(args, mode)
        text, exit_code = _MODES[mode].runner(args)
        print(text)
    elif args.command == "sweeps":
        from repro.experiments.sweeps import (
            format_sweep,
            sweep_dram_bandwidth,
            sweep_l2_capacity,
            sweep_num_tiles,
        )

        for title, sweep in (
            ("DRAM bandwidth sweep:", sweep_dram_bandwidth),
            ("L2 capacity sweep:", sweep_l2_capacity),
            ("Tile count sweep:", sweep_num_tiles),
        ):
            print(format_sweep(
                title,
                sweep(num_tasks=args.tasks, seeds=args.seeds),
            ))
            print()
    elif args.command == "all":
        print(format_fig1(run_fig1(trials=args.trials)))
        print()
        matrix = run_fig5(
            num_tasks=args.tasks, seeds=args.seeds, workers=args.workers
        )
        for fmt in (format_fig5, format_fig6, format_fig7, format_fig8):
            print(fmt(matrix))
            print()
        print(format_table4())
        print()
        print(format_validation(run_validation()))
    print(f"\n[{args.command} completed in {time.time() - start:.1f}s]",
          file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
