#!/usr/bin/env bash
# Fails when the benchmark's allocs_per_record on a gated workload passes its
# ceiling by more than the bound BENCHMARK.json gives that metric.
#
#   bash bench/run.sh --workload all --seconds 2 | tee bench_ci.json
#   scripts/bench-allocs-gate.sh bench_ci.json
#
# Allocations per record are a count, not a timing: they repeat to three
# digits between runs, between seeds and between a 2 s and a 22 s window, so
# they are the one benchmark number a shared CI runner can judge. The ceilings
# are the values measured when they were last moved on purpose; a PR that
# lowers one lowers its ceiling here, a PR that must raise one says why.
set -euo pipefail

out="${1:?usage: bench-allocs-gate.sh <bench output, one JSON object per line>}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# workload ceiling
ceilings="
frames_durable   0.460
ndjson_admission 0.418
cluster_routed   1.360
"

bound="$(jq -r '.end_to_end[] | select(.name == "allocs_per_record") | .bound' "$root/BENCHMARK.json")"
[ -n "$bound" ] || { echo "bench-allocs-gate: BENCHMARK.json gives allocs_per_record no bound" >&2; exit 1; }

# The harness prints an env line naming the workload, then its result line.
measured="$(jq -rs '
  reduce .[] as $l ({w: null, rows: []};
    if $l.env then .w = $l.env.workload
    elif $l.metrics then .rows += [[.w, $l.metrics.allocs_per_record.value]]
    else . end)
  | .rows[] | @tsv' "$out")"

status=0
while read -r workload ceiling; do
  [ -n "$workload" ] || continue
  value="$(awk -v w="$workload" '$1 == w { print $2 }' <<<"$measured")"
  if [ -z "$value" ]; then
    echo "FAIL $workload: no allocs_per_record in $out" >&2
    status=1
  elif awk -v v="$value" -v c="$ceiling" -v b="$bound" 'BEGIN { exit !(v > c * (1 + b)) }'; then
    echo "FAIL $workload: allocs_per_record $value exceeds ceiling $ceiling by more than ${bound}" >&2
    status=1
  else
    echo "ok   $workload: allocs_per_record $value (ceiling $ceiling, bound $bound)"
  fi
done <<<"$ceilings"
exit $status
