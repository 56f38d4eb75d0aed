#!/usr/bin/env bash
# failover-smoke.sh — end-to-end failover smoke for pricingd cluster mode.
#
# Builds pricingd, starts a durable primary (its WAL served under
# /cluster/) and a hot standby (-follow), streams a run over /v3, waits for
# replication to catch up, checks the standby serves the primary's
# statement while refusing writes, then SIGKILLs the primary with an
# unreplicated tail in flight, promotes the standby over POST
# /cluster/promote, and replays the whole run: the replicated batch must
# dedup, the tail must bill exactly once, and the final statement must
# match what a single uninterrupted node would have produced. This is the
# process-level counterpart of TestFailoverEndToEnd and the
# every-replication-offset sweep in internal/ledger/failover_test.go.
#
# A second leg repeats the failure with nobody to call /cluster/promote: a
# fresh primary and a standby started with -auto-promote -probe-interval
# 100ms -probe-failures 3. After the primary is SIGKILLed the standby must
# report "standby":false on /healthz within 5 s (three failed probes are due
# after 0.3 s), answer a late POST /cluster/promote with "promoted":false,
# and bill the replayed tail exactly once.
set -euo pipefail
cd "$(dirname "$0")/.."

paddr=${PRIMARY_ADDR:-127.0.0.1:18094}
saddr=${STANDBY_ADDR:-127.0.0.1:18095}
work=$(mktemp -d)
ppid=""
spid=""
opid=""
cleanup() {
    [ -n "$ppid" ] && kill -9 "$ppid" 2>/dev/null || true
    [ -n "$spid" ] && kill -9 "$spid" 2>/dev/null || true
    [ -n "$opid" ] && kill -9 "$opid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "==> building"
go build -o "$work/pricingd" ./cmd/pricingd
go run ./cmd/litmuscalib -scale 0.15 -o "$work/tables.json" >/dev/null

wait_healthy() { # addr log
    for _ in $(seq 1 100); do
        if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.1
    done
    echo "pricingd on $1 did not come up; log:" >&2
    cat "$2" >&2
    exit 1
}

echo "==> starting durable primary on $paddr"
"$work/pricingd" -addr "$paddr" -tables "$work/tables.json" \
    -data-dir "$work/data" -fsync always >"$work/primary.log" 2>&1 &
ppid=$!
disown "$ppid" 2>/dev/null || true
wait_healthy "$paddr" "$work/primary.log"

echo "==> starting hot standby on $saddr (following $paddr)"
"$work/pricingd" -addr "$saddr" -tables "$work/tables.json" \
    -follow "http://$paddr" >"$work/standby.log" 2>&1 &
spid=$!
disown "$spid" 2>/dev/null || true
wait_healthy "$saddr" "$work/standby.log"

batch_a() {
    cat <<'NDJSON'
{"tenant":"acme","minute":0,"language":"py","memoryMB":512,"tPrivate":0.081,"tShared":0.0205,"probe":{"tPrivate":0.0061,"tShared":0.0016,"machineL3Misses":1.2e6}}
{"tenant":"acme","minute":1,"language":"go","memoryMB":128,"tPrivate":0.012,"tShared":0.001,"probe":{"tPrivate":0.0049,"tShared":0.0011,"machineL3Misses":2.0e5}}
{"tenant":"zeta","minute":0,"language":"nj","memoryMB":1024,"tPrivate":0.3,"tShared":0.07,"probe":{"tPrivate":0.0052,"tShared":0.0013,"machineL3Misses":3.1e5}}
NDJSON
}
batch_b() {
    cat <<'NDJSON'
{"tenant":"acme","minute":2,"language":"py","memoryMB":256,"tPrivate":0.05,"tShared":0.012,"probe":{"tPrivate":0.0058,"tShared":0.0015,"machineL3Misses":9.0e5}}
{"tenant":"zeta","minute":2,"language":"go","memoryMB":512,"tPrivate":0.09,"tShared":0.02,"probe":{"tPrivate":0.0050,"tShared":0.0012,"machineL3Misses":2.5e5}}
NDJSON
}

echo "==> streaming batch A to the primary"
stream=$(batch_a | curl -fsS -X POST "http://$paddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-a' --data-binary @-)
echo "$stream" | grep -q '"accepted":3' || { echo "batch A not accepted: $stream" >&2; exit 1; }

echo "==> waiting for replication to catch up"
stmt_primary=$(curl -fsS "http://$paddr/v3/tenants/acme/statement")
for i in $(seq 1 100); do
    stmt_standby=$(curl -fsS "http://$saddr/v3/tenants/acme/statement" 2>/dev/null) || stmt_standby=""
    if [ "$stmt_standby" = "$stmt_primary" ]; then break; fi
    if [ "$i" = 100 ]; then
        echo "standby never caught up:" >&2
        echo "primary: $stmt_primary" >&2
        echo "standby: $stmt_standby" >&2
        curl -fsS "http://$saddr/cluster/follower" >&2 || true
        exit 1
    fi
    sleep 0.1
done
echo "    standby statement == primary statement"

echo "==> standby refuses writes while the primary lives"
gate=$(batch_a | curl -fsS -X POST "http://$saddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-a' --data-binary @-)
echo "$gate" | grep -q '"accepted":0' || { echo "standby accepted writes: $gate" >&2; exit 1; }
echo "$gate" | grep -q '"dropped":3' || { echo "standby gate did not drop: $gate" >&2; exit 1; }
curl -fsS "http://$saddr/healthz" | grep -q '"standby":true' || { echo "standby /healthz lies" >&2; exit 1; }

echo "==> landing an unreplicated tail and SIGKILLing the primary"
# Pause replication by killing the primary right after the tail commits:
# batch B accrues on the primary, then the process dies before the standby
# can be assumed to have pulled it (no ordering guarantee either way — the
# replay below must be correct in both cases, that is the point).
stream=$(batch_b | curl -fsS -X POST "http://$paddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-b' --data-binary @-)
echo "$stream" | grep -q '"accepted":2' || { echo "batch B not accepted: $stream" >&2; exit 1; }
kill -9 "$ppid"
wait "$ppid" 2>/dev/null || true
ppid=""

echo "==> promoting the standby"
promote=$(curl -fsS -X POST "http://$saddr/cluster/promote")
echo "$promote" | grep -q '"promoted":true' || { echo "promotion refused: $promote" >&2; exit 1; }
promote2=$(curl -fsS -X POST "http://$saddr/cluster/promote")
echo "$promote2" | grep -q '"promoted":false' || { echo "second promote not idempotent: $promote2" >&2; exit 1; }
curl -fsS "http://$saddr/healthz" | grep -q '"standby":true' && { echo "promoted node still claims standby" >&2; exit 1; }

echo "==> replaying the whole run against the promoted node"
replay_a=$(batch_a | curl -fsS -X POST "http://$saddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-a' --data-binary @-)
echo "$replay_a" | grep -q '"accepted":0' || { echo "replicated batch re-billed: $replay_a" >&2; exit 1; }
echo "$replay_a" | grep -q '"duplicates":3' || { echo "replicated batch not deduped: $replay_a" >&2; exit 1; }
replay_b=$(batch_b | curl -fsS -X POST "http://$saddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-b' --data-binary @-)
billed=$(echo "$replay_b" | grep -o '"accepted":[0-9]*' | cut -d: -f2)
duped=$(echo "$replay_b" | grep -o '"duplicates":[0-9]*' | cut -d: -f2)
if [ "$((billed + duped))" != 2 ]; then
    echo "tail did not close exactly once: $replay_b" >&2; exit 1
fi

echo "==> replaying again: nothing may bill twice"
again=$(batch_b | curl -fsS -X POST "http://$saddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-b' --data-binary @-)
echo "$again" | grep -q '"accepted":0' || { echo "second replay billed: $again" >&2; exit 1; }
echo "$again" | grep -q '"duplicates":2' || { echo "second replay not all duplicates: $again" >&2; exit 1; }

echo "==> oracle: one uninterrupted node fed the same run"
oaddr=${ORACLE_ADDR:-127.0.0.1:18096}
"$work/pricingd" -addr "$oaddr" -tables "$work/tables.json" >"$work/oracle.log" 2>&1 &
opid=$!
disown "$opid" 2>/dev/null || true
wait_healthy "$oaddr" "$work/oracle.log"
batch_a | curl -fsS -X POST "http://$oaddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-a' --data-binary @- >/dev/null
batch_b | curl -fsS -X POST "http://$oaddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-b' --data-binary @- >/dev/null
for tenant in acme zeta; do
    got=$(curl -fsS "http://$saddr/v3/tenants/$tenant/statement")
    want=$(curl -fsS "http://$oaddr/v3/tenants/$tenant/statement")
    if [ "$got" != "$want" ]; then
        echo "promoted statement for $tenant diverged from the no-failover oracle:" >&2
        echo "promoted: $got" >&2
        echo "oracle:   $want" >&2
        kill -9 "$opid" 2>/dev/null || true
        exit 1
    fi
done
kill -9 "$opid" 2>/dev/null || true

echo "failover smoke OK: standby mirrored, promoted, tail closed exactly once, bills match the oracle"

echo "==> auto-promote leg: a fresh primary and a standby that probes it"
kill -9 "$spid" 2>/dev/null || true
wait "$spid" 2>/dev/null || true
spid=""
"$work/pricingd" -addr "$paddr" -tables "$work/tables.json" \
    -data-dir "$work/data-auto" -fsync always >"$work/primary-auto.log" 2>&1 &
ppid=$!
disown "$ppid" 2>/dev/null || true
wait_healthy "$paddr" "$work/primary-auto.log"
"$work/pricingd" -addr "$saddr" -tables "$work/tables.json" -follow "http://$paddr" \
    -auto-promote -probe-interval 100ms -probe-failures 3 >"$work/standby-auto.log" 2>&1 &
spid=$!
disown "$spid" 2>/dev/null || true
wait_healthy "$saddr" "$work/standby-auto.log"

stream=$(batch_a | curl -fsS -X POST "http://$paddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-a' --data-binary @-)
echo "$stream" | grep -q '"accepted":3' || { echo "auto leg: batch A not accepted: $stream" >&2; exit 1; }
stmt_primary=$(curl -fsS "http://$paddr/v3/tenants/acme/statement")
for i in $(seq 1 100); do
    stmt_standby=$(curl -fsS "http://$saddr/v3/tenants/acme/statement" 2>/dev/null) || stmt_standby=""
    if [ "$stmt_standby" = "$stmt_primary" ]; then break; fi
    if [ "$i" = 100 ]; then
        echo "auto leg: standby never caught up" >&2
        curl -fsS "http://$saddr/cluster/follower" >&2 || true
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://$saddr/healthz" | grep -q '"standby":true' || { echo "auto leg: standby promoted itself under a healthy primary" >&2; cat "$work/standby-auto.log" >&2; exit 1; }
stream=$(batch_b | curl -fsS -X POST "http://$paddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-b' --data-binary @-)
echo "$stream" | grep -q '"accepted":2' || { echo "auto leg: batch B not accepted: $stream" >&2; exit 1; }
kill -9 "$ppid"
wait "$ppid" 2>/dev/null || true
ppid=""

echo "==> waiting for the standby to promote itself (bound: 5 s)"
for i in $(seq 1 50); do
    # /healthz omits "standby" once it is false.
    if ! curl -fsS "http://$saddr/healthz" | grep -q '"standby":true'; then break; fi
    if [ "$i" = 50 ]; then
        echo "standby still a standby 5 s after the primary died; log:" >&2
        cat "$work/standby-auto.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://$saddr/cluster/follower" | grep -q '"promoted":true' || { echo "auto leg: /cluster/follower disagrees with /healthz" >&2; exit 1; }
late=$(curl -fsS -X POST "http://$saddr/cluster/promote")
echo "$late" | grep -q '"promoted":false' || { echo "operator promote after auto-promotion claimed the transition: $late" >&2; exit 1; }

replay_a=$(batch_a | curl -fsS -X POST "http://$saddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-a' --data-binary @-)
echo "$replay_a" | grep -q '"accepted":0' || { echo "auto leg: replicated batch re-billed: $replay_a" >&2; exit 1; }
echo "$replay_a" | grep -q '"duplicates":3' || { echo "auto leg: replicated batch not deduped: $replay_a" >&2; exit 1; }
replay_b=$(batch_b | curl -fsS -X POST "http://$saddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-b' --data-binary @-)
billed=$(echo "$replay_b" | grep -o '"accepted":[0-9]*' | cut -d: -f2)
duped=$(echo "$replay_b" | grep -o '"duplicates":[0-9]*' | cut -d: -f2)
if [ "$((billed + duped))" != 2 ]; then
    echo "auto leg: tail did not close exactly once: $replay_b" >&2; exit 1
fi
again=$(batch_b | curl -fsS -X POST "http://$saddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-b' --data-binary @-)
echo "$again" | grep -q '"accepted":0' || { echo "auto leg: second replay billed: $again" >&2; exit 1; }
echo "$again" | grep -q '"duplicates":2' || { echo "auto leg: second replay not all duplicates: $again" >&2; exit 1; }
"$work/pricingd" -addr "$oaddr" -tables "$work/tables.json" >"$work/oracle-auto.log" 2>&1 &
opid=$!
disown "$opid" 2>/dev/null || true
wait_healthy "$oaddr" "$work/oracle-auto.log"
batch_a | curl -fsS -X POST "http://$oaddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-a' --data-binary @- >/dev/null
batch_b | curl -fsS -X POST "http://$oaddr/v3/usage" \
    -H 'Content-Type: application/x-ndjson' -H 'Idempotency-Key: smoke-b' --data-binary @- >/dev/null
for tenant in acme zeta; do
    got=$(curl -fsS "http://$saddr/v3/tenants/$tenant/statement")
    want=$(curl -fsS "http://$oaddr/v3/tenants/$tenant/statement")
    if [ "$got" != "$want" ]; then
        echo "auto-promoted statement for $tenant diverged from the no-failover oracle:" >&2
        echo "promoted: $got" >&2
        echo "oracle:   $want" >&2
        kill -9 "$opid" 2>/dev/null || true
        exit 1
    fi
done
kill -9 "$opid" 2>/dev/null || true

echo "failover smoke OK (auto-promote): the standby took over on its own probes, a late operator promote was a no-op, tail closed exactly once, bills match the oracle"
