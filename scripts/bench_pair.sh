#!/usr/bin/env bash
# Paired benchmark of the working tree against a commit: runs one workload
# through bench/run.sh PAIRS times in each of a temporary checkout of REV and
# the working tree, alternating (odd pairs run REV first, even pairs the
# working tree first, so a drifting host loads both sides alike). It prints
# each pair's four gated end-to-end metrics, then per metric the median of the
# pairs' ratios (working tree / REV), how many pairs the working tree won,
# each side's median, REV's interquartile spread as a share of its median,
# and the no-regression verdict against the metric's BENCHMARK.json bound:
# "unresolved" when REV's spread exceeds the bound, "worse" when the working
# tree's median is worse than REV's by more than the bound, "within bound"
# otherwise. Extra arguments go to both runs (e.g. --seconds 18).
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
# "name:bound:better" for each gated metric, read from BENCHMARK.json.
bounds="$(sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.eE+-]*\).*/\1:\3:\2/p' "$root/BENCHMARK.json" | tr '\n' ' ')"

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
printf '%s' "$rows" | awk -v names="$metrics" -v bounds="$bounds" '
	# sorted fills s[1..NR] with column c of every row, ascending.
	function sorted(c,    i, j, t) {
		for (i = 1; i <= NR; i++) s[i] = col[c, i]
		for (i = 2; i <= NR; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
	}
	# q is the p-quantile of s[1..NR], linearly interpolated.
	function q(p,    x, i) {
		x = 1 + p * (NR - 1); i = int(x)
		return i >= NR ? s[NR] : s[i] + (x - i) * (s[i + 1] - s[i])
	}
	{ for (k = 1; k <= 8; k++) col[k, NR] = $k; for (k = 1; k <= 4; k++) { col[8 + k, NR] = $(k + 4) / $k; if ($(k + 4) < $k) won[k]++ } }
	END {
		split(names, name, " ")
		nb = split(bounds, bl, " ")
		for (i = 1; i <= nb; i++) { split(bl[i], f, ":"); bound[f[1]] = f[2]; better[f[1]] = f[3] }
		for (k = 1; k <= 4; k++) {
			sorted(8 + k); ratio = q(0.5)
			sorted(k); base = q(0.5); spread = base ? (q(0.75) - q(0.25)) / base : 0
			sorted(k + 4); head = q(0.5)
			m = name[k]; b = bound[m]
			worse = base ? (better[m] == "higher" ? base - head : head - base) / base : 0
			verdict = b == "" ? "no bound" : spread > b ? "unresolved" : worse > b ? "worse" : "within bound"
			printf "%-16s median ratio x%.3f, lower in %d of %d pairs; median %g -> %g, REV spread %.1f%%, worse by %.1f%%, bound %.0f%%: %s\n",
				m, ratio, won[k] + 0, NR, base, head, 100 * spread, 100 * worse, 100 * b, verdict
		}
	}'
