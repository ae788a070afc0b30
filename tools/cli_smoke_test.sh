#!/bin/sh
# End-to-end smoke test of the graphsd CLI: generate -> convert round trip,
# preprocess (in-core and external), info, run (two engines + ablation
# flags), values dump. Registered with ctest; $1 is the binary path.
set -e
CLI="$1"
WORK="$(mktemp -d /tmp/graphsd_cli_test_XXXXXX)"
SERVE_PID=""
trap 'if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null; fi; rm -rf "$WORK"' EXIT

"$CLI" generate --type web --vertices 2048 --avg-degree 8 --max-weight 9 \
    --out "$WORK/g.bin" > "$WORK/log" 2>&1
grep -q "2048 vertices" "$WORK/log"

"$CLI" preprocess --input "$WORK/g.bin" --out "$WORK/ds" --p 4 \
    >> "$WORK/log" 2>&1
"$CLI" preprocess --input "$WORK/g.bin" --out "$WORK/ds_ext" --p 4 \
    --external true >> "$WORK/log" 2>&1
grep -q "out-of-core preprocessing" "$WORK/log"

"$CLI" info --dataset "$WORK/ds" > "$WORK/info" 2>&1
grep -q "intervals: 4 (sorted, indexed)" "$WORK/info"

# A freshly built dataset passes verification.
"$CLI" verify --dataset "$WORK/ds" > "$WORK/verify1" 2>&1
grep -q "all checksums match" "$WORK/verify1"
"$CLI" verify --dataset "$WORK/ds_ext" > "$WORK/verify_ext" 2>&1
grep -q "all checksums match" "$WORK/verify_ext"

"$CLI" run --dataset "$WORK/ds" --algo sssp --root 0 \
    --values-out "$WORK/dist.txt" > "$WORK/run1" 2>&1
grep -q "GraphSD/sssp" "$WORK/run1"
test "$(wc -l < "$WORK/dist.txt")" = "2048"

# Observability exporters: both documents must parse as JSON and carry
# their top-level structure. python3 -m json.tool is the authoritative
# check when available; the grep structure probes run everywhere.
"$CLI" run --dataset "$WORK/ds" --algo sssp --root 0 \
    --trace-out "$WORK/trace.json" --report-json "$WORK/report.json" \
    > "$WORK/run_obs" 2>&1
grep -q "GraphSD/sssp" "$WORK/run_obs"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$WORK/trace.json" > /dev/null
  python3 -m json.tool "$WORK/report.json" > /dev/null
fi
grep -q '"traceEvents"' "$WORK/trace.json"
grep -q '"schedule-decision"' "$WORK/trace.json"
grep -q '"schema_version"' "$WORK/report.json"
grep -q '"per_round"' "$WORK/report.json"
grep -q '"metrics"' "$WORK/report.json"

# Both preprocessing paths must yield identical results.
"$CLI" run --dataset "$WORK/ds_ext" --algo sssp --root 0 \
    --values-out "$WORK/dist_ext.txt" > "$WORK/run2" 2>&1
cmp "$WORK/dist.txt" "$WORK/dist_ext.txt"

# --threads and --compute-threads are accepted and ignored (perfbench's
# command lines still pass them): the runs must succeed with values
# byte-identical to a run without either flag.
"$CLI" run --dataset "$WORK/ds" --algo pr --iterations 10 \
    --values-out "$WORK/pr.txt" > "$WORK/run_pr" 2>&1
"$CLI" run --dataset "$WORK/ds" --algo pr --iterations 10 --threads 4 \
    --values-out "$WORK/pr_t.txt" > "$WORK/run_pr_t" 2>&1
cmp "$WORK/pr.txt" "$WORK/pr_t.txt"
"$CLI" run --dataset "$WORK/ds" --algo pr --iterations 10 --threads 4 \
    --compute-threads 4 --values-out "$WORK/pr_ct.txt" > "$WORK/run_pr_ct" 2>&1
cmp "$WORK/pr.txt" "$WORK/pr_ct.txt"

# A malformed or out-of-range numeric flag is a usage error naming the
# flag: exit 1 before any I/O, never a silent default or an abort.
expect_usage_error() {
  FLAG="$1"
  shift
  RC=0
  "$CLI" "$@" > "$WORK/bad_flag" 2>&1 || RC=$?
  test "$RC" = "1"
  grep -q "invalid value .* for --$FLAG" "$WORK/bad_flag"
}
expect_usage_error prefetch-depth run --dataset "$WORK/ds" --algo pr \
    --prefetch-depth abc
expect_usage_error iterations run --dataset "$WORK/ds" --algo pr \
    --iterations -3

# serve accepts and ignores --engine-threads the same way: the daemon
# starts, answers, and exits 0 on a shutdown request.
SOCK="$WORK/et.sock"
"$CLI" serve --socket "$SOCK" --engine-threads 2 --no-verify-on-open \
    > "$WORK/serve_et" 2>&1 &
SERVE_PID=$!
for _ in $(seq 50); do
  test -S "$SOCK" && break
  sleep 0.1
done
test -S "$SOCK"
"$CLI" query --socket "$SOCK" --dataset "$WORK/ds" --algo bfs --root 0 \
    > "$WORK/q_et.json"
grep -q '"ok":true' "$WORK/q_et.json"
"$CLI" query --socket "$SOCK" --op shutdown > /dev/null
RC=0
wait "$SERVE_PID" || RC=$?
SERVE_PID=""
test "$RC" = "0"

# The sub-block buffer has one entry shape: neither command takes a flag to
# cache compressed frames.
if "$CLI" run --dataset "$WORK/ds" --algo bfs --root 0 --cache-compressed \
    > "$WORK/run_cc" 2>&1; then
  exit 1
fi
grep -q "unknown flag --cache-compressed" "$WORK/run_cc"
if "$CLI" serve --socket "$WORK/cc.sock" --cache-compressed \
    > "$WORK/serve_cc" 2>&1; then
  exit 1
fi
grep -q "unknown flag --cache-compressed" "$WORK/serve_cc"

# One time charge: a run costs compute + io, and no flag switches it.
if "$CLI" run --dataset "$WORK/ds" --algo bfs --root 0 --no-overlap-io true \
    > "$WORK/run_overlap" 2>&1; then
  exit 1
fi
grep -q "unknown flag --no-overlap-io" "$WORK/run_overlap"

# Flipping one payload byte must be detected by verify AND by run —
# a corrupted dataset may never produce a silent wrong answer.
SB=""
for f in "$WORK"/ds_ext/sb_*.edges; do
  if [ -s "$f" ]; then SB="$f"; break; fi
done
test -n "$SB"
FIRST="$(od -An -tu1 -N1 "$SB" | tr -d ' ')"
printf "$(printf '\\%03o' $(( (FIRST + 1) % 256 )))" \
    | dd of="$SB" bs=1 count=1 conv=notrunc 2>/dev/null
if "$CLI" verify --dataset "$WORK/ds_ext" > "$WORK/verify2" 2>&1; then
  exit 1
fi
grep -q "CRC32C mismatch" "$WORK/verify2"
if "$CLI" run --dataset "$WORK/ds_ext" --algo pr > "$WORK/run_bad" 2>&1; then
  exit 1
fi
grep -q "CorruptData" "$WORK/run_bad"

"$CLI" run --dataset "$WORK/ds" --algo pr --engine lumos > "$WORK/run3" 2>&1
grep -q "Lumos/pagerank" "$WORK/run3"

"$CLI" run --dataset "$WORK/ds" --algo ppr --root 7 --no-buffer \
    > "$WORK/run4" 2>&1
grep -q "GraphSD/ppr" "$WORK/run4"

# Run lifecycle (DESIGN.md §12): a deadline-cancelled checkpointed run
# exits 130 (the shell's 128+SIGINT convention) with a partial report, and
# --resume completes it to values bit-identical to an uninterrupted run.
"$CLI" run --dataset "$WORK/ds" --algo pr --iterations 200 \
    --values-out "$WORK/pr_full.txt" > "$WORK/run_full" 2>&1
RC=0
"$CLI" run --dataset "$WORK/ds" --algo pr --iterations 200 \
    --checkpoint-dir "$WORK/ck" --deadline-seconds 0.005 \
    > "$WORK/run_killed" 2>&1 || RC=$?
test "$RC" = "130"
grep -q "CANCELLED (deadline exceeded)" "$WORK/run_killed"
"$CLI" run --dataset "$WORK/ds" --algo pr --iterations 200 \
    --checkpoint-dir "$WORK/ck" --resume true \
    --values-out "$WORK/pr_resumed.txt" > "$WORK/run_resumed" 2>&1
cmp "$WORK/pr_full.txt" "$WORK/pr_resumed.txt"

# Resuming under a different algorithm is refused, never silently redone.
if "$CLI" run --dataset "$WORK/ds" --algo bfs --root 0 \
    --checkpoint-dir "$WORK/ck" --resume true > "$WORK/run_mismatch" 2>&1
then
  exit 1
fi
grep -q "checkpoint" "$WORK/run_mismatch"

# Unknown flags and commands fail loudly.
if "$CLI" run --bogus-flag 2>/dev/null; then exit 1; fi
if "$CLI" frobnicate 2>/dev/null; then exit 1; fi

echo "cli smoke: OK"
