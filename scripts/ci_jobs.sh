#!/usr/bin/env bash
# CI leg `jobs`: end-to-end exercise of the multi-tenant job runtime and
# its HTTP admin API, exactly as an operator would drive it:
#
#   1. start `clinfl serve` on an ephemeral port (address discovered via
#      --addr-file), two concurrent job slots, per-job checkpoint dirs
#   2. submit two jobs over HTTP: a long-running one ("doomed") and a
#      short one ("survivor")
#   3. stream the survivor's live NDJSON metrics until it reports
#      `finished`
#   4. abort the doomed job over the API and require it to land in
#      `aborted` promptly (seconds, not the minutes its remaining rounds
#      would cost)
#   5. assert the survivor stayed green and both per-job checkpoint
#      directories exist (isolation: one dir per job, lock-file guarded)
#   6. submit jobs whose names climb out of --checkpoint-root and require
#      `clinfl job submit` to fail with HTTP 400 and nothing to appear
#      outside "$DIR/ckpts"
#   7. submit jobs naming the host-owned `checkpoint_dir`, `faults` and
#      `retry_*` keys, one asking for 10^8 sites and one with a DP noise
#      multiplier of 0, and require HTTP 400 for each
#   8. submit a DP-SGD job (`dp = clip:1,sigma:0.8`) and require it to
#      finish with its spec's `dp` line and a numeric `epsilon`
#
# Run from the repo root (scripts/check.sh does): scripts/ci_jobs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/clinfl
DIR=target/ci-jobs
rm -rf "$DIR"
mkdir -p "$DIR"

"$BIN" serve --addr 127.0.0.1:0 --addr-file "$DIR/addr" --max-jobs 2 \
    --scale 256 --checkpoint-root "$DIR/ckpts" >"$DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

for _ in $(seq 100); do
    [ -s "$DIR/addr" ] && break
    sleep 0.1
done
[ -s "$DIR/addr" ] || { echo "serve never wrote its address"; cat "$DIR/serve.log"; exit 1; }
CLINFL_ADMIN_ADDR=$(cat "$DIR/addr")
export CLINFL_ADMIN_ADDR
echo "==> admin API on $CLINFL_ADMIN_ADDR"

printf 'name = doomed\nrounds = 400\nclients = 2\nmin_clients = 2\nseed = 9\n' |
    "$BIN" job submit >"$DIR/doomed.json"
printf 'name = survivor\nrounds = 2\nclients = 2\nmin_clients = 2\nseed = 7\n' |
    "$BIN" job submit >"$DIR/survivor.json"
DOOMED=$(grep -o '"id":[0-9]*' "$DIR/doomed.json" | head -1 | cut -d: -f2)
SURV=$(grep -o '"id":[0-9]*' "$DIR/survivor.json" | head -1 | cut -d: -f2)
echo "==> submitted doomed=$DOOMED survivor=$SURV"

# Live metrics stream: blocks until the survivor reaches a terminal
# state, so the last NDJSON line must say `finished`.
"$BIN" job metrics --id "$SURV" --follow >"$DIR/stream.ndjson"
tail -1 "$DIR/stream.ndjson" | grep -q '"state":"finished"' ||
    { echo "survivor stream never reached finished"; tail -3 "$DIR/stream.ndjson"; exit 1; }
echo "==> survivor streamed to finished ($(wc -l <"$DIR/stream.ndjson") snapshots)"

"$BIN" job abort --id "$DOOMED" | grep -q '"aborted":true' ||
    { echo "abort was not acknowledged"; exit 1; }
ABORT_START=$SECONDS
for _ in $(seq 150); do
    "$BIN" job list >"$DIR/list.json"
    grep -q "\"id\":$DOOMED,\"name\":\"doomed\",\"state\":\"aborted\"" "$DIR/list.json" && break
    sleep 0.2
done
grep -q "\"id\":$DOOMED,\"name\":\"doomed\",\"state\":\"aborted\"" "$DIR/list.json" ||
    { echo "doomed job never aborted"; cat "$DIR/list.json"; exit 1; }
echo "==> doomed aborted in $((SECONDS - ABORT_START))s"

grep -q "\"id\":$SURV,\"name\":\"survivor\",\"state\":\"finished\"" "$DIR/list.json" ||
    { echo "survivor did not stay finished"; cat "$DIR/list.json"; exit 1; }

# Per-job isolation on disk: each job persisted into its own directory.
[ -d "$DIR/ckpts/job-1-doomed" ] && [ -d "$DIR/ckpts/job-2-survivor" ] ||
    { echo "per-job checkpoint dirs missing"; ls -la "$DIR/ckpts" || true; exit 1; }

# A job name is a directory under --checkpoint-root: one that would leave
# it is refused before anything touches the disk.
outside() { find "$DIR" -path "$DIR/ckpts" -prune -o -print | sort; }
BEFORE=$(outside)
for NAME in '../escape' 'x/../../escape'; do
    if OUT=$(printf 'name = %s\nrounds = 1\n' "$NAME" | "$BIN" job submit 2>&1); then
        echo "job named $NAME was accepted: $OUT"; exit 1
    fi
    grep -q 'HTTP 400' <<<"$OUT" ||
        { echo "job named $NAME: expected HTTP 400, got: $OUT"; exit 1; }
done
[ "$(outside)" = "$BEFORE" ] ||
    { echo "a rejected job wrote outside $DIR/ckpts"; diff <(echo "$BEFORE") <(outside); exit 1; }
echo "==> escaping job names refused with HTTP 400, nothing written"

# Host-owned keys (where the host writes, injected faults, retry
# settings) and sizes that would exhaust the server are refused the same
# way, and the server keeps serving.
for LINE in 'checkpoint_dir = /tmp/x' 'clients = 100000000' \
    'faults = delay:1000,delay_ms:4294967296000' 'retry_submit_copies = 4294967295' \
    'retry_backoff_ms = 4294967296000' 'dp = clip:1,sigma:0'; do
    if OUT=$(printf 'rounds = 1\n%s\n' "$LINE" | "$BIN" job submit 2>&1); then
        echo "job with '$LINE' was accepted: $OUT"; exit 1
    fi
    grep -q 'HTTP 400' <<<"$OUT" ||
        { echo "job with '$LINE': expected HTTP 400, got: $OUT"; exit 1; }
done
"$BIN" job list >/dev/null || { echo "server stopped serving after hostile jobs"; exit 1; }
echo "==> host-owned keys, oversized fleets and bad DP settings refused with HTTP 400"

# DP-SGD is a job key: the simulator noises every site's update and the
# finished job reports its epsilon.
printf 'name = private\nrounds = 2\nclients = 2\nmin_clients = 2\nseed = 3\ndp = clip:1,sigma:0.8\n' |
    "$BIN" job submit >"$DIR/private.json"
PRIV=$(grep -o '"id":[0-9]*' "$DIR/private.json" | head -1 | cut -d: -f2)
for _ in $(seq 600); do
    "$BIN" job list >"$DIR/list.json"
    grep -q "\"id\":$PRIV,\"name\":\"private\",\"state\":\"finished\"" "$DIR/list.json" && break
    sleep 0.2
done
grep -o "{\"id\":$PRIV,[^}]*}" "$DIR/list.json" >"$DIR/private-info.json"
grep -q '"state":"finished"' "$DIR/private-info.json" &&
    grep -q 'dp = clip:1,sigma:0.8,delta:0.00001' "$DIR/private-info.json" &&
    grep -q '"epsilon":[0-9]' "$DIR/private-info.json" ||
    { echo "DP job did not finish with its spec and epsilon"; cat "$DIR/list.json"; exit 1; }
echo "==> DP job finished: $(grep -o '"epsilon":[0-9.e+-]*' "$DIR/private-info.json")"

echo "==> jobs leg ok: survivor finished, doomed aborted, per-job dirs intact, names confined, DP job accounted"
