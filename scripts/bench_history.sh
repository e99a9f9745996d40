#!/bin/sh
# Appends one line to BENCH_history.jsonl at the root of the repo: the commit
# the benchmark stamped into its result files, the day it ran, and the four
# end-to-end metrics of every BENCHMARK.json workload, then prints each
# metric's ratio to the line before it. Refuses to append unless every
# workload has an untraced, full-scale result file. Run it after
# `bash bench/run.sh --workload <name>` over the five workloads by the PR that
# claims a change, so the next reader sees a curve and not one point.
# Usage: scripts/bench_history.sh [result-dir]   (default: bench/out)
# A result directory of another checkout records that checkout's commit.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${1:-$root/bench/out}"
workloads="$(awk '/^  "workloads": \[/ { on = 1 } /^  \],?$/ { on = 0 }
	on && /^      "name": / { gsub(/[",]/, "", $2); print $2 }' "$root/BENCHMARK.json")"
[ -n "$workloads" ] || { echo "bench_history: no workloads found in BENCHMARK.json" >&2; exit 1; }
set --
for w in $workloads; do
	[ -e "$dir/result-$w.json" ] || { echo "bench_history: no untraced result for $w in $dir" >&2; exit 1; }
	set -- "$@" "$dir/result-$w.json"
done
line="$(awk '
	/^    "workload": / { workload = $2; gsub(/[",]/, "", workload); order[++n] = workload }
	/^    "git_sha": / { s = $2; gsub(/[",]/, "", s); if (sha != "" && s != sha) mixed = 1; sha = s }
	/^    "utc_time": / { d = substr($2, 2, 10); if (d > date) date = d }
	/^    "scale": "smoke"/ { smoke = 1 }
	/^    "(setup_s|op_ms|alloc_mb_per_op|resident_mb)": / {
		k = $1; gsub(/[":]/, "", k); v = $2; sub(/,$/, "", v)
		m[workload] = m[workload] (m[workload] == "" ? "" : ",") "\"" k "\":" v
	}
	END {
		if (mixed) { print "bench_history: result files come from more than one commit" > "/dev/stderr"; exit 1 }
		if (smoke) { print "bench_history: smoke-scale results (make bench-smoke) are not a measurement" > "/dev/stderr"; exit 1 }
		printf "{\"sha\":\"%s\",\"date\":\"%s\",\"workloads\":{", sha, date
		for (i = 1; i <= n; i++) printf "%s\"%s\":{%s}", (i > 1 ? "," : ""), order[i], m[order[i]]
		print "}}"
	}
' "$@")"
printf '%s\n' "$line" | tee -a "$root/BENCH_history.jsonl"
tail -n 2 "$root/BENCH_history.jsonl" | awk '
	# metrics fills out[workload, metric] from one history line and returns
	# the keys in the order the line has them.
	function metrics(line, out, keys,   rest, obj, w, kv, p, i, n, c) {
		rest = substr(line, index(line, "\"workloads\":{") + 13)
		while (match(rest, /"[^"]+":\{[^}]*\}/)) {
			obj = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
			w = obj; sub(/^"/, "", w); sub(/".*/, "", w)
			sub(/^[^{]*\{/, "", obj); sub(/\}$/, "", obj)
			n = split(obj, kv, ",")
			for (i = 1; i <= n; i++) {
				split(kv[i], p, ":"); gsub(/"/, "", p[1])
				out[w, p[1]] = p[2]; keys[++c] = w SUBSEP p[1]
			}
		}
		return c
	}
	NR == 1 { metrics($0, prev, unused) }
	NR == 2 {
		c = metrics($0, cur, keys)
		for (i = 1; i <= c; i++) if (keys[i] in prev) {
			split(keys[i], p, SUBSEP)
			printf "%-13s %-16s %12.4f -> %12.4f  x%.3f\n", p[1], p[2], prev[keys[i]], cur[keys[i]], cur[keys[i]] / prev[keys[i]]
		}
	}
'
