#!/bin/sh
# Kernel benchmark harness: runs the serial/parallel ring, ckks and hefloat
# benchmark suites (reference vs default NTT, fused MAC, CMult/relinearization,
# hoisted and double-hoisted rotations, BSGS linear transforms, PCMM/CCMM and
# the small bootstrap) and emits the parsed results as machine-readable JSON
# with ns/op, B/op and allocs/op per benchmark — one file per package layer:
#
#   BENCH_ring.json     NTT/INTT reference vs default kernel, fused coefficient MAC
#   BENCH_ckks.json     CMult/relin, direct vs hoisted vs ext-hoisted rotations
#   BENCH_hefloat.json  naive/BSGS/reference linear transforms, PCMM(+compiled),
#                       CCMM, BootstrapSmall serial+parallel
#   BENCH_sched.json    scheduler hot-path microbenchmarks: indexed heap/bitmap
#                       popFit + allocateCards vs their linear-scan baselines
#   BENCH_compile.json  IR-compiler pass ablation (cmd/hydra-compile):
#                       keyswitch/decomposition/ModDown counts per pass
#                       configuration per program, plus naive-vs-optimized
#                       end-to-end evaluation time
#   BENCH_serve.json    serving-layer saturation sweep (cmd/hydra-serve -mode
#                       sweep): jobs/sec, utilization and wait percentiles per
#                       fleet size per offered load, with the per-job-grant
#                       coalescing ablation per point
#
# EXPERIMENTS.md tables are derived from this output.
#
# Usage: scripts/bench.sh [smoke|serve]
#   smoke    run every benchmark for a single iteration (-benchtime=1x) and
#            the serve replay with a 1-second horizon: the CI gate that keeps
#            the harness and the JSON writers working without paying full
#            measurement time.
#   serve    run only the serving-layer load replay (the `make serve-bench`
#            entry point).
#   compile  run only the IR-compiler benchmark (the `make compile-bench`
#            entry point): per-pass ablation of keyswitch/decomposition/
#            ModDown counts plus end-to-end naive-vs-optimized evaluation
#            time, written to BENCH_compile.json.
#
# Environment:
#   BENCH_DIR    output directory (default: repo root)
#   BENCHTIME    go test -benchtime value (default 1s; smoke forces 1x)
set -eu

cd "$(dirname "$0")/.."

BENCH_DIR=${BENCH_DIR:-.}
BENCHTIME=${BENCHTIME:-1s}
SUITE=all
# Provenance header stamped into every BENCH_*.json: the commit the numbers
# were measured at and the UTC wall time of the run. hydra-serve picks the
# same values up from the environment so all four files agree.
GIT_SHA=${BENCH_GIT_SHA:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}
UTC_TIME=${BENCH_UTC_TIME:-$(date -u +%Y-%m-%dT%H:%M:%SZ)}
export BENCH_GIT_SHA="$GIT_SHA" BENCH_UTC_TIME="$UTC_TIME"
# Measured defaults: the virtual-time saturation sweep over four fleet sizes
# spanning one server to 128 servers, 10^4 offered jobs per point, five
# offered loads bracketing the knee, continuous batching at 8 with the
# per-job-grant ablation recorded alongside every point.
SERVE_ARGS="-mode sweep -fleets 8,64,256,1024 -jobs 10000 -loads 0.25,0.5,0.75,1.0,1.25 -coalesce 8 -ablate -seed 1"
case "${1:-}" in
smoke)
	BENCHTIME=1x
	SERVE_ARGS="-mode sweep -fleets 8,16 -jobs 500 -loads 0.5,1.0 -coalesce 8 -seed 1"
	;;
serve)
	SUITE=serve
	;;
compile)
	SUITE=compile
	;;
esac

run_serve() {
	go run ./cmd/hydra-serve $SERVE_ARGS -out "$BENCH_DIR/BENCH_serve.json"
	echo "bench: wrote $(grep -c '"cards":' "$BENCH_DIR/BENCH_serve.json") fleet reports to $BENCH_DIR/BENCH_serve.json"
}

run_compile() {
	go run ./cmd/hydra-compile -check -out "$BENCH_DIR/BENCH_compile.json"
}

if [ "$SUITE" = "serve" ]; then
	run_serve
	exit 0
fi
if [ "$SUITE" = "compile" ]; then
	run_compile
	exit 0
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# run_suite <pattern> <package> <output-json>
run_suite() {
	PATTERN=$1
	PKG=$2
	OUT=$3

	go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" \
		"$PKG" | tee "$RAW"

	awk -v benchtime="$BENCHTIME" -v gitsha="$GIT_SHA" -v utctime="$UTC_TIME" '
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bop = ""; aop = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		else if ($i == "B/op") bop = $(i-1)
		else if ($i == "allocs/op") aop = $(i-1)
	}
	if (ns == "") next
	entry = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
	if (bop != "") entry = entry sprintf(", \"bytes_per_op\": %s", bop)
	if (aop != "") entry = entry sprintf(", \"allocs_per_op\": %s", aop)
	entry = entry "}"
	entries[n++] = entry
}
END {
	print "{"
	printf "  \"git_sha\": \"%s\",\n", gitsha
	printf "  \"utc_time\": \"%s\",\n", utctime
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"benchtime\": \"%s\",\n", benchtime
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++)
		printf "%s%s\n", entries[i], (i < n-1 ? "," : "")
	print "  ]"
	print "}"
}
' "$RAW" >"$OUT"

	echo "bench: wrote $(grep -c '"name"' "$OUT") results to $OUT"
}

run_suite \
	'^(BenchmarkNTT|BenchmarkINTT|BenchmarkMulCoeffsAdd)' \
	./internal/ring/ "$BENCH_DIR/BENCH_ring.json"

run_suite \
	'^(BenchmarkCMultRelin|BenchmarkCMultParallel|BenchmarkRotationsDirect|BenchmarkRotationsHoisted)' \
	./internal/ckks/ "$BENCH_DIR/BENCH_ckks.json"

run_suite \
	'^(BenchmarkLinearTransform|BenchmarkPCMM|BenchmarkCCMM|BenchmarkBootstrapSmall)' \
	./internal/hefloat/ "$BENCH_DIR/BENCH_hefloat.json"

run_suite \
	'^(BenchmarkPopFit|BenchmarkAllocateCards)' \
	./internal/serve/ "$BENCH_DIR/BENCH_sched.json"

run_compile

run_serve
