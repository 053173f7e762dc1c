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

echo "== tier-1 pytest, sanitized (REPRO_CHECK=1) =="
# The same suite with the runtime sanitizer on, so a failure that only
# shows while it re-checks block times, plans and shared followers
# cannot hide.
REPRO_CHECK=1 python -m pytest -x -q

echo "== slow suite =="
python -m pytest -x -q -m slow

echo "== poison-crash attribution (5 repeats) =="
# A crash charges only the cell that crashes while running alone, so
# a healthy cell in flight beside a poison cell must never be
# quarantined.  The failure this guards against was timing-dependent;
# repeating the test makes a regression show up in one CI run.
for _ in 1 2 3 4 5; do
    python -m pytest -x -q -m slow \
        "tests/test_supervision.py::TestPoolSupervision::test_poison_crash_quarantined_others_finish"
done

echo "== paper-claim benches (Figs. 1, 5-8, Table IV, ablations) =="
# pytest only collects test_*.py, so `pytest benchmarks` runs nothing;
# name the files so a speed-only change cannot silently flip one of
# the paper's qualitative results (14 tests, a few seconds).
python -m pytest -q benchmarks/bench_*.py

echo "== smoke =="
python scripts/smoke.py A 24 M

echo "== examples (each must exit 0) =="
for example in examples/*.py; do
    echo "-- $example"
    python "$example" >/dev/null
done

echo "== traced benchmark smoke (layer tracer vs src/ names) =="
# The benchmark's layer tracer patches named src/ methods; a traced
# one-second run must finish with every cell correct.  The run only
# writes its span CSV under the ignored perfbench/out/.
TRACED_LAST=$(python perfbench/run.py --workload small-cells-2w \
    --seed 1 --seconds 1 --trace 1 | tail -n 1)
python -c 'import json, sys
failed = json.loads(sys.argv[1]).get("failed")
if failed != 0:
    sys.exit(f"FAIL: traced benchmark run reports failed={failed}")
print("traced benchmark run: 0 failed")' "$TRACED_LAST"

echo "== mini-sweep (2 workers) =="
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1 --workers 2

echo "== export identity (2-worker supervised vs serial, byte-exact) =="
# The 2-worker supervised sweep and the serial sweep must write
# byte-identical JSON/CSV/manifest artifacts; any divergence in the
# completion-order aggregation or the exporters fails the diff.
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
# The runtime invariant sanitizer (engine-vs-reference block-time
# spot checks, the isolated-latency floor, ledger state-machine
# checks) must be a pure observer: the same sweep under
# REPRO_CHECK=1 must write byte-identical artifacts to the unchecked
# serial reference.
REPRO_CHECK=1 python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 --workers 1 \
    --out "$EXPORT_TMP/sanitized" --format json,csv
diff -r "$EXPORT_TMP/sanitized" "$EXPORT_TMP/serial"
echo "sanitized run byte-identical"

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

echo "== shared deadline-blind timelines (QoS-only variants, byte-exact) =="
# Static and Prema never read a task's SLA target, so an in-process
# sweep simulates each of their timelines once and builds the cells
# that differ only in QoS level from that run.  The legs above have no
# QoS-only variants; here the 2-worker pool (which shares nothing),
# a sanitized serial run (which re-simulates and compares every
# shared cell) and a 2-shard merge must all write the serial bytes.
QOS_SWEEP=(--scenarios ref-a-qos-h,ref-a-qos-m,ref-a-qos-l
           --tasks 16 --seeds 1,2)
python -m repro.cli sweep "${QOS_SWEEP[@]}" --workers 1 \
    --out "$EXPORT_TMP/qos-serial" --format json,csv
python -m repro.cli sweep "${QOS_SWEEP[@]}" --workers 2 \
    --out "$EXPORT_TMP/qos-pool" --format json,csv
diff -r "$EXPORT_TMP/qos-pool" "$EXPORT_TMP/qos-serial"
REPRO_CHECK=1 python -m repro.cli sweep "${QOS_SWEEP[@]}" --workers 1 \
    --out "$EXPORT_TMP/qos-sanitized" --format json,csv
diff -r "$EXPORT_TMP/qos-sanitized" "$EXPORT_TMP/qos-serial"
for shard in 1/2 2/2; do
    python -m repro.cli sweep "${QOS_SWEEP[@]}" --workers 1 \
        --shard "$shard" --out "$EXPORT_TMP/qos-shards"
done
python -m repro.cli merge "$EXPORT_TMP/qos-shards" \
    --out "$EXPORT_TMP/qos-merged" --format json,csv
diff -r "$EXPORT_TMP/qos-merged" "$EXPORT_TMP/qos-serial"
echo "shared timelines byte-identical"

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

# coordinator_url DIR PID: wait for the coordinator PID serving into
# DIR to publish coordinator.json and print its URL (kill it and fail
# if it never does).
coordinator_url() {
    local url=""
    for _ in $(seq 1 100); do
        if [ -f "$1/coordinator.json" ]; then
            url=$(python -c "import json,sys;print(json.load(open(sys.argv[1]))['url'])" \
                "$1/coordinator.json" 2>/dev/null || true)
            [ -n "$url" ] && break
        fi
        sleep 0.1
    done
    if [ -z "$url" ]; then
        echo "FAIL: coordinator never published $1/coordinator.json" >&2
        kill "$2" 2>/dev/null || true
        exit 1
    fi
    echo "$url"
}

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
URL=$(coordinator_url "$EXPORT_TMP/coord" "$SERVE_PID")
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

echo "== degraded coordinator -> re-serve (exit 3 -> --resume --serve, byte-exact) =="
# A worker that quarantines a poison cell degrades the served sweep:
# the coordinator drains, exits 3 and leaves its journal.  Re-serving
# the directory with 'sweep --resume DIR --serve' must re-lease only
# the quarantined cell to a clean worker, exit 0, and write exports
# byte-identical to the unsharded serial reference.
python -m repro.cli sweep \
    --scenarios bursty-mixed,diurnal-light \
    --tasks 16 --seeds 1,2 \
    --serve --out "$EXPORT_TMP/reserve" --format json,csv &
SERVE_PID=$!
URL=$(coordinator_url "$EXPORT_TMP/reserve" "$SERVE_PID")
python -m repro.cli sweep --worker "$URL" \
    --inject-faults 'transient:cells=5:attempts=all' --max-retries 0
rc=0
wait "$SERVE_PID" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: degraded coordinator exited $rc, expected 3" >&2
    exit 1
fi
if [ ! -f "$EXPORT_TMP/reserve/cells.jsonl" ]; then
    echo "FAIL: degraded coordinator left no checkpoint journal" >&2
    exit 1
fi
python -m repro.cli sweep --resume "$EXPORT_TMP/reserve" --serve \
    --format json,csv &
SERVE_PID=$!
URL=$(coordinator_url "$EXPORT_TMP/reserve" "$SERVE_PID")
python -m repro.cli sweep --worker "$URL"
if ! wait "$SERVE_PID"; then
    echo "FAIL: re-served coordinator exited non-zero" >&2
    exit 1
fi
diff -r "$EXPORT_TMP/reserve" "$EXPORT_TMP/serial"
echo "degraded coordinator -> re-serve byte-identical"

echo "CI OK"
