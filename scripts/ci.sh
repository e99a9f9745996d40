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

echo "== go test -race -run Cluster (cards running fhir's evaluator concurrently)"
# Every card of a LowerCluster job runs its share through fhir's evaluator on
# the one Evaluator and Encoder the cluster shares.
go test -race -run Cluster "$@" ./internal/fhir/

echo "== go test -race -short (plan cache + double-hoisted BSGS)"
# The hefloat suite includes the concurrent shared-plan and the
# parallel-vs-serial plan differential; -short skips the slow bootstrap
# convergence tests that add nothing to the race coverage.
go test -race -short "$@" ./internal/hefloat/

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

echo "== conformance matrix (full corpus x 5 engines, golden-checked)"
# Fails on any cell outside its program's precision budget and on any
# regression against testdata/golden_matrix.json.
go test -count=1 -run TestConformanceMatrix ./internal/conformance/

echo "== compiler (IR pass-ablation report + differential fuzz smoke)"
# The report compiles the three benchmark programs (BSGS dense matvec,
# bootstrap, ResNet block) under every pass configuration, so a pass
# combination that stops compiling fails here; the 20% keyswitch-reduction
# bar itself is asserted by internal/fhir's tests in the tier-1 stage above.
# The fuzzer differentially checks random IR programs (interpreter: optimized
# vs naive compile) for 10 seconds.
go run ./cmd/hydra-compile >/dev/null
go test -fuzz=FuzzIRPasses -fuzztime=10s -run '^$' ./internal/fhir/

echo "== fuzz smoke (seed corpora + 10s per fuzzer)"
# Short differential-fuzz passes seeded from testdata/fuzz and f.Add: the
# modular arithmetic kernels, the RNS base conversions and the plaintext
# encoder against math/big, and the ISA and ciphertext wire decoders against
# crashes and out-of-contract output.
go test -fuzz=FuzzModularOps -fuzztime=10s -run '^$' ./internal/ring/
go test -fuzz=FuzzBaseConversion -fuzztime=10s -run '^$' ./internal/ring/
go test -fuzz=FuzzUnmarshal -fuzztime=10s -run '^$' ./internal/isa/
go test -fuzz=FuzzUnmarshalCiphertext -fuzztime=10s -run '^$' ./internal/ckks/
go test -fuzz=FuzzEncodeResidues -fuzztime=10s -run '^$' ./internal/ckks/

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

echo "== hydra-serve replay smoke (virtual-time sweep with ablation, closed loop)"
# The sweep and closed-loop modes drive the same grant lifecycle as the live
# server, from a discrete-event loop; a failed replay is a non-zero exit.
go run ./cmd/hydra-serve -mode sweep -fleets 16,64 -jobs 500 -coalesce 8 -ablate -out - >/dev/null
go run ./cmd/hydra-serve -mode closed -fleets 16 -users 200 -jobs 500 -out - >/dev/null

echo "== loc (non-test, non-generated Go lines; informational, never gates)"
sh scripts/loc.sh || true

echo "ci: OK"
