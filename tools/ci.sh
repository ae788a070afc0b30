#!/bin/sh
# One-shot CI entry point.
#
#   1. Tier-1: regular build + the full test suite (the gate every change
#      must keep green, see ROADMAP.md), 200 repeats of the pooled-prefetch
#      stress test, CLI smokes, the perfbench and
#      bench gate unit tests, and the byte/round regression gate: a fresh
#      bench_trajectory snapshot must reproduce the newest BENCH_*.json's
#      deterministic fields exactly (tools/bench_gate.py).
#   2. ASan+UBSan build + full suite.
#   3. TSan build + the concurrency smoke targets (PrefetchStream,
#      ThreadPool, IoStats and the prefetch pipeline end to end). The full suite under
#      TSan is too slow for per-change CI; run it manually before releases
#      with `tools/sanitize_build.sh thread`.
#
# Usage: tools/ci.sh [--tier1-only]
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

echo "== tier 1: build + full test suite =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$(nproc)"
(cd "$ROOT/build" && ctest --output-on-failure -j "$(nproc)")
# Concurrent prefetch streams on two readers, repeated: a stream-contract
# race shows up here long before it shows up once in a plain ctest run.
"$ROOT/build/tests/core_test" --gtest_filter='PooledPrefetch.*' \
    --gtest_repeat=200 > /dev/null

echo "== tier 1: JSON export smoke (--trace-out / --report-json) =="
OBS_DIR="$(mktemp -d /tmp/graphsd_obs_smoke_XXXXXX)"
trap 'rm -rf "$OBS_DIR"' EXIT
CLI="$ROOT/build/tools/graphsd"
"$CLI" generate --type web --vertices 2048 --avg-degree 8 --max-weight 9 \
    --out "$OBS_DIR/g.bin" > /dev/null
"$CLI" preprocess --input "$OBS_DIR/g.bin" --out "$OBS_DIR/ds" --p 4 \
    > /dev/null
"$CLI" run --dataset "$OBS_DIR/ds" --algo sssp --root 0 \
    --trace-out "$OBS_DIR/trace.json" --report-json "$OBS_DIR/report.json" \
    > /dev/null
python3 -m json.tool "$OBS_DIR/trace.json" > /dev/null
python3 -m json.tool "$OBS_DIR/report.json" > /dev/null
echo "json export smoke: OK"

echo "== tier 1: compressed layout smoke (--codec varint-delta) =="
"$CLI" preprocess --input "$OBS_DIR/g.bin" --out "$OBS_DIR/ds_vd" --p 4 \
    --codec varint-delta > /dev/null
"$CLI" verify --dataset "$OBS_DIR/ds_vd" > /dev/null
"$CLI" run --dataset "$OBS_DIR/ds_vd" --algo sssp --root 0 \
    --report-json "$OBS_DIR/report_vd.json" > /dev/null
python3 - "$OBS_DIR/report_vd.json" <<'PYEOF'
import json, sys
comp = json.load(open(sys.argv[1]))["compression"]
assert comp["codec"] == "varint-delta", comp
assert comp["frames_decoded"] > 0, comp
assert comp["compressed_bytes_read"] > 0, comp
assert comp["decoded_bytes"] > 0, comp
PYEOF
echo "compressed smoke: OK"

echo "== tier 1: deterministic scheduling smoke (auto, varint-delta) =="
# The scheduler reads no timing, so identical default runs must choose the
# same model every round and read the same bytes, on the modeled and on
# the real SSD alike.
for DEV in real:ssd sim:ssd; do
  for ALGO in bfs cc; do
    for K in 1 2 3; do
      "$CLI" run --dataset "$OBS_DIR/ds_vd" --algo "$ALGO" --root 0 \
          --device "$DEV" \
          --report-json "$OBS_DIR/det_${ALGO}_$(echo "$DEV" | tr : _)_$K.json" \
          > /dev/null
    done
  done
done
python3 - "$OBS_DIR" <<'PYEOF'
import glob, json, os, sys
runs = {}
for path in sorted(glob.glob(os.path.join(sys.argv[1], "det_*.json"))):
    doc = json.load(open(path))
    key = os.path.basename(path).rsplit("_", 1)[0]
    models = "".join(r["model"] for r in doc["per_round"])
    runs.setdefault(key, set()).add((models, doc["io"]["total_read_bytes"]))
assert len(runs) == 4, sorted(runs)
for key, seen in runs.items():
    assert len(seen) == 1, (key, seen)
PYEOF
echo "deterministic scheduling smoke: OK"

echo "== tier 1: differential harness smoke (graphsd difftest) =="
# A bounded randomized sweep: every registered algorithm against the
# in-memory oracle, across raw + varint-delta datasets and forced-model /
# prefetch / cross-iteration configurations. Nonzero exit on any
# divergence; the minimized repro artifact lands in the artifact dir.
"$CLI" difftest --seeds 6 --seed0 211 --artifact-dir "$OBS_DIR/repro" \
    > /dev/null
echo "difftest smoke: OK"

echo "== tier 1: run lifecycle smoke (checkpoint / resume / Ctrl-C) =="
# Deadline-cancelled checkpointed run -> exit 130 -> --resume completes to
# values bit-identical to an uninterrupted run.
"$CLI" run --dataset "$OBS_DIR/ds" --algo pr --iterations 200 \
    --values-out "$OBS_DIR/pr_full.txt" > /dev/null
RC=0
"$CLI" run --dataset "$OBS_DIR/ds" --algo pr --iterations 200 \
    --checkpoint-dir "$OBS_DIR/ck" --deadline-seconds 0.005 \
    > /dev/null 2>&1 || RC=$?
test "$RC" = "130"
"$CLI" run --dataset "$OBS_DIR/ds" --algo pr --iterations 200 \
    --checkpoint-dir "$OBS_DIR/ck" --resume true \
    --values-out "$OBS_DIR/pr_resumed.txt" > /dev/null
cmp "$OBS_DIR/pr_full.txt" "$OBS_DIR/pr_resumed.txt"
# Ctrl-C: SIGINT trips the cooperative token; the run rolls back to the
# last committed boundary, writes a final checkpoint and exits 130.
"$CLI" run --dataset "$OBS_DIR/ds" --algo pr --iterations 100000 \
    --checkpoint-dir "$OBS_DIR/ck_int" \
    > "$OBS_DIR/run_int.log" 2>&1 &
RUN_PID=$!
sleep 1
kill -INT "$RUN_PID"
RC=0
wait "$RUN_PID" || RC=$?
test "$RC" = "130"
grep -q "CANCELLED (interrupted (SIGINT))" "$OBS_DIR/run_int.log"
test -f "$OBS_DIR/ck_int/checkpoint.0.gsck" \
    || test -f "$OBS_DIR/ck_int/checkpoint.1.gsck"
# Randomized kill-and-resume differential sweep: kill checkpointed runs,
# damage slots, resume, require bit-identical final values (and, under a
# forced model, the uninterrupted run's round and skip counters).
# (stderr silenced: every killed trial logs an expected "run cancelled".)
"$CLI" difftest --kill-resume --seeds 2 --seed0 77 > /dev/null 2>&1
echo "lifecycle smoke: OK"

echo "== tier 1: semi-external smoke (--mode semi, raw and varint-delta) =="
# Sparse-frontier workload (SSSP on a 64x64 grid: a long diagonal wavefront
# touches few intervals per round, so the scheduler's third cost C_m wins
# naturally): semi mode must actually elide sub-block I/O via the skip
# summaries, report semi rounds, and agree bit-exactly with the default
# engine.
"$CLI" generate --type grid --rows 64 --cols 64 --max-weight 9 \
    --out "$OBS_DIR/grid.bin" > /dev/null
"$CLI" preprocess --input "$OBS_DIR/grid.bin" --out "$OBS_DIR/ds_grid" \
    --p 4 > /dev/null
"$CLI" run --dataset "$OBS_DIR/ds_grid" --algo sssp --root 0 \
    --values-out "$OBS_DIR/sssp_default.txt" > /dev/null
"$CLI" run --dataset "$OBS_DIR/ds_grid" --algo sssp --root 0 \
    --mode semi --values-out "$OBS_DIR/sssp_semi.txt" \
    --report-json "$OBS_DIR/report_semi.json" > /dev/null
cmp "$OBS_DIR/sssp_default.txt" "$OBS_DIR/sssp_semi.txt"
python3 - "$OBS_DIR/report_semi.json" <<'PYEOF'
import json, sys
semi = json.load(open(sys.argv[1]))["semi_external"]
assert semi["rounds"] > 0, semi
assert semi["blocks_skipped"] > 0, semi
assert semi["blocks_skipped_bytes"] > 0, semi
PYEOF
# Compressed dataset: semi rounds decode varint-delta frames and the
# answers must still match the default engine bit for bit.
"$CLI" preprocess --input "$OBS_DIR/grid.bin" --out "$OBS_DIR/ds_grid_vd" \
    --p 4 --codec varint-delta > /dev/null
"$CLI" run --dataset "$OBS_DIR/ds_grid_vd" --algo sssp --root 0 \
    --mode semi --values-out "$OBS_DIR/sssp_semi_vd.txt" \
    --report-json "$OBS_DIR/report_semi_vd.json" > /dev/null
cmp "$OBS_DIR/sssp_default.txt" "$OBS_DIR/sssp_semi_vd.txt"
python3 - "$OBS_DIR/report_semi_vd.json" <<'PYEOF'
import json, sys
comp = json.load(open(sys.argv[1]))["compression"]
assert comp["frames_decoded"] > 0, comp
PYEOF
echo "semi-external smoke: OK"

echo "== tier 1: SSD scheduling smoke (--device sim:ssd / real:ssd) =="
# The SSD cost preset moves the C_r <= C_s crossover toward on-demand: on a
# sparse-wavefront workload large enough that a full stream outweighs a
# handful of 60us seeks, the scheduler must flip at least one round to SCIU
# and log the decision (model "S") with its cost inputs in the report. The
# same workload then runs on the real:ssd backend (O_DIRECT + batched
# preadv, SSD scheduler economics, wall-clock time) and must produce
# bit-identical values.
"$CLI" generate --type grid --rows 256 --cols 256 --max-weight 9 \
    --out "$OBS_DIR/grid_ssd.bin" > /dev/null
"$CLI" preprocess --input "$OBS_DIR/grid_ssd.bin" --out "$OBS_DIR/ds_ssd" \
    --p 4 > /dev/null
"$CLI" run --dataset "$OBS_DIR/ds_ssd" --algo sssp --root 0 \
    --device sim:ssd --values-out "$OBS_DIR/sssp_ssd_sim.txt" \
    --report-json "$OBS_DIR/report_ssd.json" > /dev/null
python3 - "$OBS_DIR/report_ssd.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["cost_model"]["seek_seconds"] <= 1e-4, doc["cost_model"]
models = [r["model"] for r in doc["per_round"]]
assert "S" in models, models
for r in doc["per_round"]:
    if r["model"] in ("S", "F"):
        assert r["cost_on_demand"] > 0 and r["cost_full"] > 0, r
PYEOF
"$CLI" run --dataset "$OBS_DIR/ds_ssd" --algo sssp --root 0 \
    --device real:ssd --values-out "$OBS_DIR/sssp_ssd_real.txt" > /dev/null
cmp "$OBS_DIR/sssp_ssd_sim.txt" "$OBS_DIR/sssp_ssd_real.txt"
echo "ssd scheduling smoke: OK"

echo "== tier 1: hot-path smoke (hardware CRC32C, atomic-free kernels) =="
# The real:ssd read path verifies every sub-block with the dispatched
# CRC32C, and one consumer thread runs every apply through the programs'
# single-writer kernels while the loader reads and decodes frames. On the
# varint-delta copy of the smoke dataset, PR (gather) and PR-Delta (push)
# must give the same bytes with synchronous (depth 0) or prefetched (depth
# 1 and 4) reads; the dataset must verify, and one flipped edge byte must
# fail verification.
for ALGO in pr prd; do
  for D in 0 1 4; do
    "$CLI" run --dataset "$OBS_DIR/ds_vd" --algo "$ALGO" --device real:ssd \
        --prefetch-depth "$D" --values-out "$OBS_DIR/hot_${ALGO}_$D.txt" \
        > /dev/null
    cmp "$OBS_DIR/hot_${ALGO}_0.txt" "$OBS_DIR/hot_${ALGO}_$D.txt"
  done
done
"$CLI" verify --dataset "$OBS_DIR/ds" > /dev/null
cp -r "$OBS_DIR/ds" "$OBS_DIR/ds_flip"
EDGES="$(ls -S "$OBS_DIR"/ds_flip/sb_*.edges | head -n 1)"
python3 - "$EDGES" <<'PYEOF'
import sys
with open(sys.argv[1], "r+b") as f:
    f.seek(0, 2)
    f.seek(f.tell() // 2)
    byte = f.read(1)
    f.seek(-1, 1)
    f.write(bytes([byte[0] ^ 0xFF]))
PYEOF
RC=0
"$CLI" verify --dataset "$OBS_DIR/ds_flip" > "$OBS_DIR/verify_flip.log" 2>&1 \
    || RC=$?
test "$RC" = "1"
grep -q "CRC32C mismatch" "$OBS_DIR/verify_flip.log"
echo "hot-path smoke: OK"

echo "== tier 1: query service smoke (graphsd serve / graphsd query) =="
# Resident daemon on a temp socket: open-once dataset registry, shared
# buffer tier, batched multi-source runs. Exercises the wire protocol end
# to end (verify / run / values / stats / shutdown) with the real CLI
# client and checks every response parses as JSON.
SOCK="$OBS_DIR/svc.sock"
"$CLI" serve --socket "$SOCK" --workers 2 --no-verify-on-open \
    > "$OBS_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 50); do
  test -S "$SOCK" && break
  sleep 0.1
done
test -S "$SOCK"
"$CLI" query --socket "$SOCK" --op verify --dataset "$OBS_DIR/ds" \
    > "$OBS_DIR/q_verify.json"
"$CLI" query --socket "$SOCK" --dataset "$OBS_DIR/ds" --algo pr \
    --iterations 10 > "$OBS_DIR/q_pr.json"
"$CLI" query --socket "$SOCK" --dataset "$OBS_DIR/ds" --algo bfs --root 0 \
    --values --vertices 0,1,2 > "$OBS_DIR/q_bfs.json"
"$CLI" query --socket "$SOCK" --op stats > "$OBS_DIR/q_stats.json"
python3 -m json.tool "$OBS_DIR/q_verify.json" > /dev/null
python3 -m json.tool "$OBS_DIR/q_pr.json" > /dev/null
python3 -m json.tool "$OBS_DIR/q_bfs.json" > /dev/null
python3 -m json.tool "$OBS_DIR/q_stats.json" > /dev/null
"$CLI" query --socket "$SOCK" --op shutdown > /dev/null
RC=0
wait "$SERVE_PID" || RC=$?
test "$RC" = "0"
test ! -S "$SOCK"
echo "service smoke: OK"

echo "== tier 1: perfbench unit tests =="
(cd "$ROOT" && python3 -m unittest discover -s perfbench -p 'test_*.py')

echo "== tier 1: bench gate unit tests =="
(cd "$ROOT" && python3 -m unittest discover -s tools -p 'test_*.py')

echo "== tier 1: byte and round regression gate (bench_trajectory) =="
# Bytes moved, rounds, iterations, semi-external skips and SSD scheduling
# decisions are deterministic, so a fresh snapshot must match the newest
# pinned BENCH_*.json exactly. bench_trajectory's own acceptances are all
# deterministic too (no failed service query, the semi-external byte
# reduction, an SSD SCIU round), so it must exit 0.
RC=0
(cd "$OBS_DIR" && "$ROOT/build/tools/bench_trajectory" "$OBS_DIR/bench.json" \
    > "$OBS_DIR/bench.log" 2>&1) || RC=$?
test "$RC" -eq 0
python3 "$ROOT/tools/bench_gate.py" "$OBS_DIR/bench.json"
echo "bench gate: OK"

if [ "$1" = "--tier1-only" ]; then
  exit 0
fi

echo "== tier 2: ASan + UBSan =="
"$ROOT/tools/sanitize_build.sh" address

echo "== tier 3: TSan concurrency smoke =="
"$ROOT/tools/sanitize_build.sh" thread "^tsan_"
