#!/usr/bin/env bash
# End-to-end smoke of the multi-node campaign fleet.
#
# Usage: scripts/check_fleet.sh [build-dir]   (default: build)
#
# Proves the fleet acceptance contract on a tiny campaign:
#   1. coordinator + two live workers + one dead node address: the dead node
#      is quarantined (coordinator exit 3, quarantine recorded in the
#      manifest) while the live pair completes the campaign;
#   2. one live worker is SIGKILLed mid-campaign: its unfinished shards are
#      re-leased to the survivor;
#   3. under all of that, the merged trace is byte-identical to the direct
#      single-machine batch run;
#   4. `restore-analyze status` names the quarantined node and exits 3.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}

WORK=$(mktemp -d)
W1=
W2=
COORD=
cleanup() {
  for pid in "$COORD" "$W1" "$W2"; do
    [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

SEED=53
TRIALS=16
SHARD_TRIALS=4
DEAD=127.0.0.1:9  # discard port: nobody listens, every connect faults

echo "== reference: direct batch run =="
"$BUILD_DIR/bench/fig2_vm_injection" \
  --seed "$SEED" --trials "$TRIALS" --shard-trials "$SHARD_TRIALS" \
  --workers 2 --out-jsonl "$WORK/direct.jsonl" >/dev/null

echo "== fleet: two live workers on ephemeral ports + one dead address =="
"$BUILD_DIR/tools/restored" --fleet-worker --listen 127.0.0.1:0 \
  --spool "$WORK/w1" 2>"$WORK/w1.log" &
W1=$!
"$BUILD_DIR/tools/restored" --fleet-worker --listen 127.0.0.1:0 \
  --spool "$WORK/w2" 2>"$WORK/w2.log" &
W2=$!

address_of() {
  local log=$1 addr=
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$log" | head -1)
    [[ -n "$addr" ]] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  echo "check_fleet: worker never logged its address ($log)" >&2
  return 1
}
ADDR1=$(address_of "$WORK/w1.log")
ADDR2=$(address_of "$WORK/w2.log")

"$BUILD_DIR/tools/restore-fleet" --nodes "$ADDR1,$ADDR2,$DEAD" \
  --kind vm --seed "$SEED" --trials "$TRIALS" --shard-trials "$SHARD_TRIALS" \
  --node-faults-max 1 --connect-timeout-ms 500 --node-retries 0 \
  --out "$WORK/fleet.jsonl" >"$WORK/coord.out" 2>"$WORK/coord.log" &
COORD=$!

# SIGKILL the second worker as soon as the first shard commits: whatever it
# was holding must be re-leased to the survivor.
for _ in $(seq 1 300); do
  grep -q "committed" "$WORK/coord.log" 2>/dev/null && break
  sleep 0.05
done
kill -9 "$W2" 2>/dev/null || true
W2=

COORD_EXIT=0
wait "$COORD" || COORD_EXIT=$?
COORD=
cat "$WORK/coord.out"

# A benched node is not a healthy campaign: the dead address (and usually
# the killed worker too) must push the exit code to 3 even though the
# merged trace is complete.
if [[ "$COORD_EXIT" -ne 3 ]]; then
  echo "check_fleet: coordinator exited $COORD_EXIT (want 3: node quarantine)" >&2
  sed 's/^/  coord: /' "$WORK/coord.log" >&2
  exit 1
fi
grep -q "node $DEAD quarantined" "$WORK/coord.log" || {
  echo "check_fleet: coordinator log missing the dead-node quarantine" >&2
  sed 's/^/  coord: /' "$WORK/coord.log" >&2
  exit 1
}

echo "== trace byte-identity (fleet vs direct) =="
cmp "$WORK/direct.jsonl" "$WORK/fleet.jsonl"
echo "identical ($(wc -c <"$WORK/direct.jsonl") bytes)"

echo "== status must name the quarantined node and exit 3 =="
STATUS_EXIT=0
"$BUILD_DIR/tools/restore-analyze" status "$WORK/fleet.jsonl" \
  | tee "$WORK/status.out" || STATUS_EXIT=$?
if [[ "$STATUS_EXIT" -ne 3 ]]; then
  echo "check_fleet: restore-analyze status exited $STATUS_EXIT (want 3)" >&2
  exit 1
fi
grep -q "quarantined fleet node $DEAD" "$WORK/status.out" || {
  echo "check_fleet: status output missing the quarantined node $DEAD" >&2
  exit 1
}

echo "check_fleet: OK"
