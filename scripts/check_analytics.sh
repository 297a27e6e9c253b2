#!/usr/bin/env bash
# End-to-end smoke of the analytics layer (compact + query + parity).
#
# Usage: scripts/check_analytics.sh [build-dir]   (default: build)
#
# Proves the analytics acceptance contract on a tiny fixed-seed fig2 trace:
#   1. compaction is byte-deterministic: two compactions at different
#      --threads counts produce identical .cols files;
#   2. the columnar outcome breakdown equals the one `restore-analyze status`
#      computes from the source JSONL, row for row (both emit the same JSON
#      array, so the comparison is a structural diff);
#   3. the full report renders as valid JSON with the campaign's row count.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

SEED=7
TRIALS=24
SHARD_TRIALS=8

echo "== fixed-seed fig2 campaign =="
"$BUILD_DIR/bench/fig2_vm_injection" \
  --seed "$SEED" --trials "$TRIALS" --shard-trials "$SHARD_TRIALS" \
  --workers 2 --out-jsonl "$WORK/fig2.jsonl" >/dev/null

echo "== compaction byte-determinism (1 vs 8 threads) =="
"$BUILD_DIR/tools/restore-analyze" compact "$WORK/fig2.jsonl" \
  --out "$WORK/t1.cols" --threads 1 >/dev/null
"$BUILD_DIR/tools/restore-analyze" compact "$WORK/fig2.jsonl" \
  --out "$WORK/t8.cols" --threads 8 >/dev/null
cmp "$WORK/t1.cols" "$WORK/t8.cols"
echo "identical ($(wc -c <"$WORK/t1.cols") bytes)"

echo "== outcome parity: columnar query vs status over the JSONL =="
"$BUILD_DIR/tools/restore-analyze" query "$WORK/t1.cols" \
  --query outcomes --json >"$WORK/store.json"
"$BUILD_DIR/tools/restore-analyze" status "$WORK/fig2.jsonl" --json \
  >"$WORK/status.json"
python3 - "$WORK/store.json" "$WORK/status.json" <<'PY'
import json, sys

store = json.load(open(sys.argv[1]))
status = json.load(open(sys.argv[2]))
breakdown = status["breakdown"]
if store != breakdown:
    print("check_analytics: breakdown mismatch", file=sys.stderr)
    print(f"  query outcomes:  {json.dumps(store)}", file=sys.stderr)
    print(f"  status:          {json.dumps(breakdown)}", file=sys.stderr)
    sys.exit(1)
total = sum(row["count"] for row in store)
print(f"parity OK: {len(store)} breakdown row(s), {total} trial(s)")
PY

echo "== full report is valid JSON with the campaign's row count =="
"$BUILD_DIR/tools/restore-analyze" report "$WORK/t1.cols" --json \
  >"$WORK/report.json"
python3 - "$WORK/report.json" "$WORK/status.json" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
status = json.load(open(sys.argv[2]))
trials = status["totals"]["trials_done"]
if report["rows"] != trials:
    print(f"check_analytics: report rows {report['rows']} != "
          f"campaign trials {trials}", file=sys.stderr)
    sys.exit(1)
for key in ("outcomes", "avf", "by_pc", "by_opcode", "latency"):
    if not report.get(key):
        print(f"check_analytics: report section '{key}' is empty", file=sys.stderr)
        sys.exit(1)
print(f"report OK: {report['rows']} rows, kind {report['kind']}")
PY

echo "check_analytics: OK"
