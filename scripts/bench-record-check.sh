#!/usr/bin/env bash
# Fails when the newest "PR <n>" line of CHANGES.md is tagged [perf_opt] and
# the repository does not commit that PR's benchmark pairs as BENCH_<n>.json.
#
#   scripts/bench-record-check.sh
#
# A performance claim is only as good as the runs behind it, so a perf_opt
# PR commits them: BENCH_<n>.json must parse and hold pr == n, gomaxprocs,
# the claim's workload, metric, pair count and change-better count, and a
# non-empty list of runs (BENCH_43.json's schema). The claim must also be
# met, and won by the change in at least nine pairs of ten: a gain that
# loses more than one pair in ten is not told apart from the runs' spread.
# Any other tag passes.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

line="$(grep -E '^PR [0-9]+ ' "$root/CHANGES.md" | sort -k2,2n | tail -n 1 || true)"
[ -n "$line" ] || { echo "bench-record-check: CHANGES.md has no \"PR <n>\" line" >&2; exit 1; }
n="$(awk '{ print $2 }' <<<"$line")"
case "$line" in
"PR $n [perf_opt]"*) ;;
*)
	echo "bench-record-check: PR $n is not tagged [perf_opt]; no record required"
	exit 0
	;;
esac

record="BENCH_$n.json"
[ -f "$root/$record" ] || { echo "bench-record-check: PR $n is [perf_opt] but $record is missing" >&2; exit 1; }
jq -e . "$root/$record" >/dev/null || { echo "bench-record-check: $record does not parse" >&2; exit 1; }

status=0
while IFS= read -r check; do
	[ -n "$check" ] || continue
	if ! jq -e --argjson n "$n" "$check" "$root/$record" >/dev/null; then
		echo "bench-record-check: $record fails: $check" >&2
		status=1
	fi
done <<'EOF'
.pr == $n
.gomaxprocs | type == "number"
.claim.workload | type == "string" and length > 0
.claim.metric | type == "string" and length > 0
.claim.pairs | type == "number"
.claim.change_better | type == "number"
.runs | type == "array" and length > 0
.claim.met == true
.claim.change_better * 10 >= .claim.pairs * 9
EOF
[ "$status" -eq 0 ] && echo "bench-record-check: PR $n [perf_opt] commits $record"
exit "$status"
