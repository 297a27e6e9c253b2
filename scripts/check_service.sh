#!/usr/bin/env bash
# End-to-end smoke of the restored campaign service.
#
# Usage: scripts/check_service.sh [build-dir]   (default: build)
#
# Proves the service acceptance contract on a tiny campaign:
#   1. a job submitted through restored/restorectl produces a trace
#      byte-identical to the same campaign run directly by the batch CLI;
#   2. a duplicate submission is served from the spool (no second run);
#   3. SIGTERM drains the daemon cleanly (exit 0).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}

WORK=$(mktemp -d)
DAEMON=
cleanup() {
  [[ -n "$DAEMON" ]] && kill "$DAEMON" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SEED=41
TRIALS=16
SHARD_TRIALS=8
SOCKET="$WORK/restored.sock"
CTL=("$BUILD_DIR/tools/restorectl" --socket "$SOCKET")

echo "== reference: direct batch run =="
"$BUILD_DIR/bench/fig2_vm_injection" \
  --seed "$SEED" --trials "$TRIALS" --shard-trials "$SHARD_TRIALS" \
  --workers 2 --out-jsonl "$WORK/direct.jsonl" >/dev/null

echo "== daemon: submit the same campaign over the socket =="
"$BUILD_DIR/tools/restored" --socket "$SOCKET" --spool "$WORK/spool" \
  --workers 2 2>"$WORK/restored.log" &
DAEMON=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCKET" ]] && break
  sleep 0.1
done
[[ -S "$SOCKET" ]] || { echo "check_service: daemon never bound $SOCKET" >&2; exit 1; }

"${CTL[@]}" ping

"${CTL[@]}" submit --kind vm --seed "$SEED" --trials "$TRIALS" \
  --shard-trials "$SHARD_TRIALS" --follow --fetch "$WORK/fetched.jsonl"

echo "== trace byte-identity (daemon vs direct) =="
cmp "$WORK/direct.jsonl" "$WORK/fetched.jsonl"
echo "identical ($(wc -c <"$WORK/direct.jsonl") bytes)"

echo "== duplicate submission must be a spool cache hit =="
"${CTL[@]}" submit --kind vm --seed "$SEED" --trials "$TRIALS" \
  --shard-trials "$SHARD_TRIALS" | tee "$WORK/dup.out"
grep -q "served from spool" "$WORK/dup.out" || {
  echo "check_service: duplicate submission was not served from the spool" >&2
  exit 1
}

"${CTL[@]}" list

echo "== status over direct + spool traces =="
"$BUILD_DIR/tools/restore-analyze" status "$WORK/direct.jsonl" "$WORK"/spool/vm-*.jsonl

echo "== SIGTERM drains cleanly =="
kill -TERM "$DAEMON"
DAEMON_EXIT=0
wait "$DAEMON" || DAEMON_EXIT=$?
DAEMON=
if [[ "$DAEMON_EXIT" -ne 0 ]]; then
  echo "check_service: daemon exited $DAEMON_EXIT after SIGTERM" >&2
  sed 's/^/  restored: /' "$WORK/restored.log" >&2
  exit 1
fi
grep -q "drain complete" "$WORK/restored.log" || {
  echo "check_service: daemon log missing drain confirmation" >&2
  exit 1
}

echo "check_service: OK"
