#!/usr/bin/env bash
# Paired benchmark of the working tree against a commit: runs one workload
# through bench/run.sh PAIRS times in each of a temporary checkout of REV and
# the working tree, alternating (odd pairs run REV first, even pairs the
# working tree first, so a drifting host loads both sides alike). It prints
# each pair's four gated end-to-end metrics, then per metric the median of the
# pairs' ratios (working tree / REV) and how many pairs the working tree won.
# Extra arguments go to both runs (e.g. --seconds 18).
# Usage: scripts/bench_pair.sh REV WORKLOAD PAIRS [run.sh flags...]
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: scripts/bench_pair.sh REV WORKLOAD PAIRS [run.sh flags...]" >&2; exit 2; }
rev=$1 workload=$2 pairs=$3
shift 3
root="$(cd "$(dirname "$0")/.." && pwd)"
base="$(mktemp -d)"
trap 'rm -rf "$base"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$base"
metrics="setup_s op_ms alloc_mb_per_op resident_mb"

# run prints the four metrics of one run of the checkout at $1, in order.
run() {
	local line m
	line="$(bash "$1/bench/run.sh" --workload "$workload" "${@:2}" | tail -n 1)"
	for m in $metrics; do
		printf '%s ' "$(printf '%s' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")"
	done
}

rows=""
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		b="$(run "$base" "$@")"
		h="$(run "$root" "$@")"
	else
		h="$(run "$root" "$@")"
		b="$(run "$base" "$@")"
	fi
	printf 'pair %d  %s: %s  working tree: %s\n' "$i" "$rev" "$b" "$h"
	rows="$rows$b$h
"
done
printf '%s' "$rows" | awk -v names="$metrics" '
	{ for (k = 1; k <= 4; k++) { r[k, NR] = $(k + 4) / $k; if ($(k + 4) < $k) won[k]++ } }
	END {
		split(names, name, " ")
		for (k = 1; k <= 4; k++) {
			n = 0
			for (i = 1; i <= NR; i++) v[++n] = r[k, i]
			for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
			med = n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
			printf "%-16s median ratio x%.3f, lower in %d of %d pairs\n", name[k], med, won[k] + 0, NR
		}
	}'
