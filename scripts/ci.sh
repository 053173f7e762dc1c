#!/usr/bin/env bash
# CI entry point: tier-1 tests, the slow-marked suite, the smoke run,
# and a 2-worker mini-sweep of two registry scenarios (which must be
# bit-identical to serial — the sweep CLI itself asserts nothing, so
# the slow test suite covers the identity; this run proves the
# end-to-end path works from the shell).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro-lint (determinism / lock coverage / purity) =="
# Project-specific static analysis (src/repro/devtools/lint): exits
# non-zero on any finding not suppressed inline with a reason or
# recorded (with a reason) in lint_baseline.json.
python scripts/lint_repro.py

echo "== ruff + mypy (advisory tier, gated on availability) =="
# Generic linters run when the environment has them; the image does
# not ship them, so absence is a skip, not a failure.  Config (and
# the ratchet knobs) lives in pyproject.toml.
if python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src scripts
else
    echo "ruff not installed; skipping (pip install ruff to enable)"
fi
if python -m mypy --version >/dev/null 2>&1; then
    python -m mypy src/repro
else
    echo "mypy not installed; skipping (pip install mypy to enable)"
fi

echo "== tier-1 pytest =="
python -m pytest -x -q

echo "== slow suite =="
python -m pytest -x -q -m slow

echo "== paper-claim benches (Figs. 1, 5-8, Table IV, ablations) =="
# pytest only collects test_*.py, so `pytest benchmarks` runs nothing;
# name the files so a speed-only change cannot silently flip one of
# the paper's qualitative results (14 tests, a few seconds).
python -m pytest -q benchmarks/bench_*.py

echo "== engine microbench gate (plan seam vs imperative, bit-identity) =="
# ISSUE acceptance gate: the declarative plan seam must not run
# slower than the legacy imperative seam on the engine microbench
# (best-of-rounds ratio with one re-measure backstop, plus the
# recorded BENCH_perf.json
# imperative baseline as a cross-run backstop), and the vectorized
# solver must stay bit-identical to the scalar oracle across a
# reference-matrix spot check.  Both are asserted inside
# bench_perf.py --engine-only, which exits non-zero on violation.
python scripts/bench_perf.py --engine-only --tasks 120 --seeds 1

echo "== smoke =="
python scripts/smoke.py A 24 M

echo "== mini-sweep (2 workers) =="
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1 --workers 2

echo "== streaming export identity (parallel vs serial, byte-exact) =="
# The streaming (2-worker) sweep and the serial sweep must write
# byte-identical JSON/CSV/manifest artifacts; any divergence in the
# streaming aggregation or the exporters fails the diff.
EXPORT_TMP="$(mktemp -d)"
trap 'rm -rf "$EXPORT_TMP"' EXIT
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 --workers 2 \
    --out "$EXPORT_TMP/streamed" --format json,csv
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 --workers 1 \
    --out "$EXPORT_TMP/serial" --format json,csv
diff -r "$EXPORT_TMP/streamed" "$EXPORT_TMP/serial"
echo "exports byte-identical"

echo "== sanitized run (REPRO_CHECK=1, byte-exact vs unchecked) =="
# The runtime invariant sanitizer (vector-vs-scalar solver spot
# checks, trusted-plan re-validation, ledger state-machine checks)
# must be a pure observer: the same sweep under REPRO_CHECK=1 must
# write byte-identical artifacts to the unchecked serial reference.
REPRO_CHECK=1 python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 --workers 1 \
    --out "$EXPORT_TMP/sanitized" --format json,csv
diff -r "$EXPORT_TMP/sanitized" "$EXPORT_TMP/serial"
echo "sanitized run byte-identical"

echo "== every-event cadence identity (explicit vs default, byte-exact) =="
# ISSUE acceptance gate: the declarative plan seam under its default
# (every-event) cadence must stay bit-identical to the pinned
# sweep-export goldens.  The pytest golden suite pins the bytes
# themselves (tests/test_golden.py, tests/goldens/sweep_exports.json);
# this run additionally proves that spelling the default cadence out
# (--cadence every-event) writes the very same JSON/CSV/manifest
# bytes as the default path end to end from the shell.
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 --workers 1 \
    --cadence every-event \
    --out "$EXPORT_TMP/everyevent" --format json,csv
diff -r "$EXPORT_TMP/everyevent" "$EXPORT_TMP/serial"
echo "every-event cadence byte-identical"

echo "== shard/merge identity (2 shards -> merge vs unsharded, byte-exact) =="
# ISSUE acceptance gate: running the same sweep as two shard partials
# and merging them must write byte-identical JSON/CSV/manifest
# artifacts to the unsharded serial run above.  Shard 1 additionally
# runs with a deterministic first-attempt worker crash injected: the
# supervisor must retry the cell on a rebuilt pool and the merged
# exports must *still* be byte-identical (retry determinism).
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 --workers 2 \
    --inject-faults 'crash:cells=3:attempts=1' \
    --max-retries 2 --retry-backoff 0.05 \
    --shard 1/2 --out "$EXPORT_TMP/shards"
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 --workers 2 \
    --shard 2/2 --out "$EXPORT_TMP/shards"
python -m repro.cli merge "$EXPORT_TMP/shards" \
    --out "$EXPORT_TMP/merged" --format json,csv
diff -r "$EXPORT_TMP/merged" "$EXPORT_TMP/serial"
echo "sharded merge byte-identical"

echo "== fault tolerance (poison crash -> exit 3 -> resume, byte-exact) =="
# ISSUE acceptance gate: a sweep with an injected unrecoverable worker
# crash must quarantine the poisoned cells and exit 3 (degraded)
# leaving a checkpoint journal; 'sweep --resume' without the fault
# plan must finish the sweep with exit 0 and write exports
# byte-identical to the fault-free serial reference above.
rc=0
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 --workers 2 \
    --inject-faults 'crash:cells=2:attempts=all' \
    --max-retries 1 --retry-backoff 0.05 \
    --out "$EXPORT_TMP/faulted" --format json,csv || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: degraded sweep exited $rc, expected 3" >&2
    exit 1
fi
if [ ! -f "$EXPORT_TMP/faulted/cells.jsonl" ]; then
    echo "FAIL: degraded sweep left no checkpoint journal" >&2
    exit 1
fi
python -m repro.cli sweep --resume "$EXPORT_TMP/faulted" \
    --workers 2 --format json,csv
if [ -f "$EXPORT_TMP/faulted/cells.jsonl" ]; then
    echo "FAIL: completed resume did not remove the journal" >&2
    exit 1
fi
diff -r "$EXPORT_TMP/faulted" "$EXPORT_TMP/serial"
echo "crash -> resume byte-identical"

echo "== coordinator gate (in-process lease stealing, byte-exact) =="
# ISSUE acceptance gate: an in-process coordinator with two live
# workers and one dead one (lease taken, never heard from again) must
# steal the expired lease mid-sweep and still produce exports
# byte-identical to the serial matrix.  Asserted inside the script.
python scripts/coordinator_gate.py

echo "== distributed sweep (coordinator + 2 HTTP workers, one killed) =="
# ISSUE acceptance gate: 'sweep --serve' plus two real 'sweep --worker'
# processes over HTTP; the first worker is killed mid-run by an
# injected crash fault (the whole process dies with exit 86), the
# second steals the expired lease and drains the sweep.  The merged
# exports must be byte-identical to the unsharded serial reference.
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 \
    --serve --lease-ttl 2 \
    --out "$EXPORT_TMP/coord" --format json,csv &
SERVE_PID=$!
URL=""
for _ in $(seq 1 100); do
    if [ -f "$EXPORT_TMP/coord/coordinator.json" ]; then
        URL=$(python -c "import json,sys;print(json.load(open(sys.argv[1]))['url'])" \
            "$EXPORT_TMP/coord/coordinator.json" 2>/dev/null || true)
        [ -n "$URL" ] && break
    fi
    sleep 0.1
done
if [ -z "$URL" ]; then
    echo "FAIL: coordinator never published coordinator.json" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
rc=0
python -m repro.cli sweep --worker "$URL" \
    --inject-faults 'crash:cells=5' || rc=$?
if [ "$rc" -ne 86 ]; then
    echo "FAIL: crashing worker exited $rc, expected 86" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
python -m repro.cli sweep --worker "$URL"
if ! wait "$SERVE_PID"; then
    echo "FAIL: coordinator exited non-zero" >&2
    exit 1
fi
diff -r "$EXPORT_TMP/coord" "$EXPORT_TMP/serial"
echo "distributed sweep byte-identical"

echo "CI OK"
