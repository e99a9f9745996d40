#!/bin/sh
# Appends one line to BENCH_history.jsonl at the root of the repo: the commit
# the benchmark stamped into its result files, the day it ran, and the four
# end-to-end metrics of every workload that has an untraced result file. Run
# it after `bash bench/run.sh --workload <name>` (or -repeat) by the PR that
# claims a change, so the next reader sees a curve and not one point.
# Usage: scripts/bench_history.sh [result-dir]   (default: bench/out)
# A result directory of another checkout records that checkout's commit.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${1:-$root/bench/out}"
set -- "$dir"/result-*.json
[ -e "$1" ] || { echo "bench_history: no result files in $dir" >&2; exit 1; }
line="$(awk '
	FNR == 1 { traced = (FILENAME ~ /-traced\.json$/); workload = "" }
	traced { next }
	/^    "workload": / { workload = $2; gsub(/[",]/, "", workload); order[++n] = workload }
	/^    "git_sha": / { s = $2; gsub(/[",]/, "", s); if (sha != "" && s != sha) mixed = 1; sha = s }
	/^    "utc_time": / { d = substr($2, 2, 10); if (d > date) date = d }
	/^    "(setup_s|op_ms|alloc_mb_per_op|resident_mb)": / {
		k = $1; gsub(/[":]/, "", k); v = $2; sub(/,$/, "", v)
		m[workload] = m[workload] (m[workload] == "" ? "" : ",") "\"" k "\":" v
	}
	END {
		if (mixed) { print "bench_history: result files come from more than one commit" > "/dev/stderr"; exit 1 }
		printf "{\"sha\":\"%s\",\"date\":\"%s\",\"workloads\":{", sha, date
		for (i = 1; i <= n; i++) printf "%s\"%s\":{%s}", (i > 1 ? "," : ""), order[i], m[order[i]]
		print "}}"
	}
' "$@")"
printf '%s\n' "$line" | tee -a "$root/BENCH_history.jsonl"
