#!/usr/bin/env bash
# recovery-smoke.sh — end-to-end crash-recovery smoke for pricingd.
#
# Builds pricingd, starts it with a durable ledger (-data-dir, fsync
# always), streams usage over /v3, reads a statement back, SIGKILLs the
# daemon — no shutdown, no flush — restarts it on the same directory, and
# asserts the statement comes back byte-identical and /healthz admits to
# having recovered the records. A second leg snapshots every two accruals,
# so the restart recovers from a snapshot document, not only the WAL. This
# is the process-level counterpart of the kill-at-every-offset harness in
# internal/ledger/ledgertest.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=${ADDR:-127.0.0.1:18093}
work=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "==> building"
go build -o "$work/pricingd" ./cmd/pricingd
go run ./cmd/litmuscalib -scale 0.15 -o "$work/tables.json" >/dev/null

# start [flag...] runs pricingd on $data with the given extra flags.
data="$work/data"
start() {
    "$work/pricingd" -addr "$addr" -tables "$work/tables.json" \
        -data-dir "$data" -fsync always "$@" >>"$work/pricingd.log" 2>&1 &
    pid=$!
    disown "$pid" 2>/dev/null || true # silence bash's "Killed" job notices
    for _ in $(seq 1 100); do
        if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.1
    done
    echo "pricingd did not come up; log:" >&2
    cat "$work/pricingd.log" >&2
    exit 1
}

echo "==> starting pricingd (durable)"
start

echo "==> streaming usage"
stream=$(curl -fsS -X POST "http://$addr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-run' \
    --data-binary @- <<'NDJSON'
{"tenant":"acme","minute":0,"language":"py","memoryMB":512,"tPrivate":0.081,"tShared":0.0205,"probe":{"tPrivate":0.0061,"tShared":0.0016,"machineL3Misses":1.2e6}}
{"tenant":"acme","minute":1,"language":"go","memoryMB":128,"tPrivate":0.012,"tShared":0.001,"probe":{"tPrivate":0.0049,"tShared":0.0011,"machineL3Misses":2.0e5}}
{"tenant":"zeta","minute":0,"language":"nj","memoryMB":1024,"tPrivate":0.3,"tShared":0.07,"probe":{"tPrivate":0.0052,"tShared":0.0013,"machineL3Misses":3.1e5}}
NDJSON
)
echo "$stream" | grep -q '"accepted":3' || { echo "stream not accepted: $stream" >&2; exit 1; }

stmt_before=$(curl -fsS "http://$addr/v3/tenants/acme/statement")
tenants_before=$(curl -fsS "http://$addr/v3/tenants")

echo "==> SIGKILL $pid"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "==> restarting on the same data dir"
start

health=$(curl -fsS "http://$addr/healthz")
echo "$health" | grep -q '"recovered":true' || { echo "no recovery reported: $health" >&2; exit 1; }
echo "$health" | grep -q '"recordsReplayed":3' || { echo "wrong replay count: $health" >&2; exit 1; }

stmt_after=$(curl -fsS "http://$addr/v3/tenants/acme/statement")
tenants_after=$(curl -fsS "http://$addr/v3/tenants")
if [ "$stmt_before" != "$stmt_after" ]; then
    echo "statement changed across SIGKILL:" >&2
    echo "before: $stmt_before" >&2
    echo "after:  $stmt_after" >&2
    exit 1
fi
if [ "$tenants_before" != "$tenants_after" ]; then
    echo "tenant listing changed across SIGKILL" >&2
    exit 1
fi

echo "==> replaying the stream (must dedup)"
replay=$(curl -fsS -X POST "http://$addr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-run' \
    --data-binary @- <<'NDJSON'
{"tenant":"acme","minute":0,"language":"py","memoryMB":512,"tPrivate":0.081,"tShared":0.0205,"probe":{"tPrivate":0.0061,"tShared":0.0016,"machineL3Misses":1.2e6}}
{"tenant":"acme","minute":1,"language":"go","memoryMB":128,"tPrivate":0.012,"tShared":0.001,"probe":{"tPrivate":0.0049,"tShared":0.0011,"machineL3Misses":2.0e5}}
{"tenant":"zeta","minute":0,"language":"nj","memoryMB":1024,"tPrivate":0.3,"tShared":0.07,"probe":{"tPrivate":0.0052,"tShared":0.0013,"machineL3Misses":3.1e5}}
NDJSON
)
echo "$replay" | grep -q '"duplicates":3' || { echo "replay double-billed: $replay" >&2; exit 1; }

# field NAME prints the first numeric JSON field NAME of stdin (0 if none).
field() { grep -o "\"$1\":[0-9.eE+-]*" | head -1 | cut -d: -f2 | grep . || echo 0; }

echo "==> SIGKILL $pid; leg 2: a fresh data dir snapshotting every 2 accruals"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
data="$work/data-snap"
start -snapshot-every 2

echo "==> streaming one window under two pricers"
stream=$(curl -fsS -X POST "http://$addr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-snap' \
    --data-binary @- <<'NDJSON'
{"tenant":"acme","minute":0,"language":"py","memoryMB":512,"tPrivate":0.081,"tShared":0.0205,"probe":{"tPrivate":0.0061,"tShared":0.0016,"machineL3Misses":1.2e6}}
{"tenant":"acme","minute":0,"pricer":"commercial","language":"py","memoryMB":512,"tPrivate":0.081,"tShared":0.0205,"probe":{"tPrivate":0.0061,"tShared":0.0016,"machineL3Misses":1.2e6}}
{"tenant":"acme","minute":0,"pricer":"commercial","language":"go","memoryMB":128,"tPrivate":0.012,"tShared":0.001,"probe":{"tPrivate":0.0049,"tShared":0.0011,"machineL3Misses":2.0e5}}
{"tenant":"zeta","minute":0,"language":"nj","memoryMB":1024,"tPrivate":0.3,"tShared":0.07,"probe":{"tPrivate":0.0052,"tShared":0.0013,"machineL3Misses":3.1e5}}
NDJSON
)
echo "$stream" | grep -q '"accepted":4' || { echo "stream not accepted: $stream" >&2; exit 1; }
for _ in $(seq 1 100); do
    [ "$(curl -fsS "http://$addr/healthz" | field snapshots)" -ge 1 ] && break
    sleep 0.1
done
health=$(curl -fsS "http://$addr/healthz")
[ "$(echo "$health" | field snapshots)" -ge 1 ] || { echo "no snapshot taken: $health" >&2; exit 1; }

stmt_before=$(curl -fsS "http://$addr/v3/tenants/acme/statement")
tenants_before=$(curl -fsS "http://$addr/v3/tenants")
echo "$stmt_before" | grep -q '"bills":{"commercial":[^}]*,"litmus":' ||
    { echo "window not billed under both pricers: $stmt_before" >&2; exit 1; }

echo "==> SIGKILL $pid"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "==> restarting on the snapshotted data dir"
start -snapshot-every 2

health=$(curl -fsS "http://$addr/healthz")
[ "$(echo "$health" | field snapshotGen)" -ge 1 ] || { echo "recovery loaded no snapshot: $health" >&2; exit 1; }
echo "==> time to ready: snapshot load $(echo "$health" | field snapshotLoadMs) ms + WAL replay $(echo "$health" | field walReplayMs) ms"
stmt_after=$(curl -fsS "http://$addr/v3/tenants/acme/statement")
tenants_after=$(curl -fsS "http://$addr/v3/tenants")
if [ "$stmt_before" != "$stmt_after" ]; then
    echo "statement changed across a snapshot recovery:" >&2
    echo "before: $stmt_before" >&2
    echo "after:  $stmt_after" >&2
    exit 1
fi
if [ "$tenants_before" != "$tenants_after" ]; then
    echo "tenant listing changed across a snapshot recovery" >&2
    exit 1
fi

echo "recovery smoke OK: statement survived SIGKILL, replay deduped, a snapshot recovery matched"
