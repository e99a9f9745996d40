#!/bin/sh
# CI gate for the limb-parallel execution layer: vet everything, then run the
# concurrency-bearing packages (the worker pool, the evaluator that fans limb
# work onto it, and the goroutine-card cluster that nests it) under the race
# detector. The ckks package includes the parallel-vs-serial differential
# harness, so this also proves bit-identical results under -race scheduling.
#
# Usage: scripts/ci.sh [extra go-test flags]
set -eu

cd "$(dirname "$0")/.."

echo "== go vet + gofmt"
go vet ./...
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "ci: gofmt -l lists unformatted files: run gofmt -w on them" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== hydra-lint (FHE + concurrency invariants)"
make lint

echo "== generated-kernel freshness (go generate ./... must be a no-op)"
# The specialized NTT kernels in internal/ring/ntt_gen.go are emitted by
# cmd/hydra-genkernels from the shipped parameter list; a checked-in copy
# that drifts from what the generator emits means someone edited generated
# code by hand or changed the generator without regenerating.
go generate ./...
if ! git diff --exit-code -- '*.go'; then
	echo "ci: generated code is stale: run 'go generate ./...' and commit the result" >&2
	exit 1
fi

echo "== go test -race (pool + evaluator + cluster + serving layer)"
go test -race "$@" \
	./internal/ring/... \
	./internal/ckks/... \
	./internal/cluster/... \
	./internal/serve/...

echo "== go test -race -run 'Cluster|Evaluate' (fhir's evaluator, alone and on concurrent cards)"
# Evaluate fans out on the limb pool itself (DiagMac's diagonal-parallel
# encodes, the fused rescale tail), and every card of a LowerCluster job runs
# its share through the same evaluator on the one Evaluator and Encoder the
# cluster shares.
go test -race -run 'Cluster|Evaluate' "$@" ./internal/fhir/

echo "== go test -race -short (plan cache + double-hoisted BSGS)"
# The hefloat suite includes the concurrent shared-plan and the
# parallel-vs-serial plan differential; -short skips the slow bootstrap
# convergence tests that add nothing to the race coverage.
go test -race -short "$@" ./internal/hefloat/

echo "== go test -race -run TestBootstrapDigestsPinned (one full bootstrap, three calls)"
# -short skips every full bootstrap above. Bootstrap gives each intermediate's
# rows back to the ring's row pool, from its two concurrent sine branches
# too, and three back-to-back calls must still match their pinned digests.
go test -race -run TestBootstrapDigestsPinned "$@" ./internal/hefloat/

echo "== go test -tags poisonpool (every recycled row holds fresh garbage)"
# With the poisonpool tag the row pool scribbles random residues over every
# row given back, so an op that reads a pooled row before writing it, or a
# value read after its rows went back, changes a result that the suites pin:
# TestPoisonedPoolChangesNothing's two runs, the output digests and the
# bit-identity differentials.
go test -tags poisonpool "$@" ./internal/ring/ ./internal/ckks/ ./internal/fhir/ ./internal/hefloat/ ./internal/cluster/

echo "== go test -race -short (conformance reduced matrix)"
# The cross-engine matrix minus the heavy bootstrap program: every remaining
# program still runs on all five engines, with the cluster column putting
# fhir.LowerCluster's kernels and the goroutine-card runtime under the race
# detector.
go test -race -short "$@" ./internal/conformance/

echo "== go test (full tier-1 suite)"
# Includes the root package's check that BENCH_history.jsonl, the one
# checked-in measurement, is well-formed for every BENCHMARK.json workload.
go test ./...

echo "== go benchmarks, each run once"
# No other stage runs the Benchmark* functions, so a b.Fatal path (a lowering
# that fails, a result that stops checking) would break unseen. One iteration
# each, timings ignored.
go test -run '^$' -bench . -benchtime 1x "$@" ./internal/...

echo "== conformance matrix (full corpus x 5 engines, golden-checked)"
# Fails on any cell outside its program's precision budget and on any
# regression against testdata/golden_matrix.json.
go test -count=1 -run TestConformanceMatrix ./internal/conformance/

echo "== compiler (IR pass-ablation report)"
# The report compiles the three benchmark programs (BSGS dense matvec,
# bootstrap, ResNet block) under every pass configuration, so a pass
# combination that stops compiling fails here; the 20% keyswitch-reduction
# bar itself is asserted by internal/fhir's tests in the tier-1 stage above.
go run ./cmd/hydra-compile >/dev/null

echo "== examples (cluster, quickstart, bootstrap)"
# Each runs end to end in a few seconds; examples/cluster exits non-zero when
# its 4-card output differs from fhir.Evaluate's.
for e in cluster quickstart bootstrap; do
	go run "./examples/$e" >/dev/null
done

echo "== hydrasim front end (-exp all against cmd/hydrasim/testdata/all.golden)"
# TestGolden* pins what the generators return; this pins everything the
# command line prints from them, byte for byte, Table III's EDAP and Fig. 7's
# energy breakdown included.
if ! go run ./cmd/hydrasim -exp all | diff -u cmd/hydrasim/testdata/all.golden -; then
	echo "ci: hydrasim -exp all differs from cmd/hydrasim/testdata/all.golden" >&2
	exit 1
fi

echo "== fuzz smoke (seed corpora + 10s per fuzzer, the make fuzz list)"
# Short differential-fuzz passes seeded from testdata/fuzz and f.Add: the
# modular arithmetic kernels, the RNS base conversions and the plaintext
# encoder and decoder against math/big, the ISA and ciphertext wire decoders against
# crashes and out-of-contract output, the simulator against its reference
# scheduler, random IR programs (interpreter: optimized vs naive
# compile, each evaluated twice on one evaluator), and hostile card scripts
# against the cluster runtime.
make fuzz

echo "== bench-smoke (bench/ module: vet, test, five workloads at smoke scale)"
# bench/ is its own module (replace hydra => ../), invisible to the
# `go vet ./...` and `go test ./...` stages above: an API deletion that breaks
# the repository benchmark would otherwise surface only in the driver.
make bench-smoke

echo "== hydra-serve smoke (1-second 1024-card open-loop load, -race)"
# Drives the live serving layer end to end at fleet scale — batched admission,
# heap dispatch, bitmap card allocation, continuous batching, drain — under
# the race detector, with a short synthetic Poisson replay. The report goes
# nowhere: a race, a Submit failure or a writer error is a non-zero exit.
go run -race ./cmd/hydra-serve -mode live -fleets 1024 -rate 300 -duration 1s \
	-dilation 0.05 -coalesce 8 -queue 2048 -out - >/dev/null

echo "== hydra-serve replay smoke (virtual-time sweep with ablation, closed loop, against goldens)"
# The sweep and closed-loop modes drive the same grant lifecycle as the live
# server, from a discrete-event loop. Their JSON is deterministic, so each is
# diffed byte for byte against its golden in cmd/hydra-serve/testdata: a
# failed replay or a moved number is a non-zero exit.
if ! go run ./cmd/hydra-serve -mode sweep -fleets 16,64 -jobs 500 -coalesce 8 -ablate -out - |
	diff -u cmd/hydra-serve/testdata/sweep.golden -; then
	echo "ci: hydra-serve -mode sweep differs from cmd/hydra-serve/testdata/sweep.golden" >&2
	exit 1
fi
if ! go run ./cmd/hydra-serve -mode closed -fleets 16 -users 200 -jobs 500 -out - |
	diff -u cmd/hydra-serve/testdata/closed.golden -; then
	echo "ci: hydra-serve -mode closed differs from cmd/hydra-serve/testdata/closed.golden" >&2
	exit 1
fi

echo "== loc (non-test, non-generated Go lines; informational, never gates)"
sh scripts/loc.sh || true

echo "ci: OK"
