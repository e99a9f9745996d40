# Hydra reproduction — build/test entry points.
#
# `make ci` is the gate used before merging: vet + race-detector run over the
# concurrency-bearing packages (worker pool, evaluator, cluster, serving layer),
# then the full tier-1 suite.

GO ?= go
# The BENCHMARK.json workloads, in its order.
WORKLOADS = he-rot he-mul he-boot sim-fleet serve-replay

.PHONY: all build test lint race ci bench bench-smoke fuzz golden-update conformance conformance-update loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Domain-specific static analysis over the whole module: enforces the FHE
# and concurrency invariants (no raw modular arithmetic outside internal/ring,
# no pooled scratch escaping its acquire/release window, no raw goroutines in
# hot packages, no float math in exact zones, no dropped errors in the
# scheduling layers, no lazy residue escaping its window, no goroutine
# without a cancellation arm). See DESIGN.md "Static invariants".
lint:
	$(GO) run ./cmd/hydra-lint

# Race-detector run of the limb pool, the evaluator that fans work onto it,
# the goroutine-card cluster that nests it (includes the differential
# parallel-vs-serial harness), fhir's evaluator (Evaluate's own fan-outs:
# DiagMac's diagonal-parallel encodes and the fused rescale tail) and its
# cluster lowering (cards running that evaluator concurrently on one shared
# Evaluator and Encoder), and the
# multi-tenant serving layer. Matches the ci.sh race coverage: hefloat and
# the conformance matrix run -short to skip the slow bootstrap-convergence
# tests that add no race coverage.
race:
	$(GO) test -race ./internal/ring/... ./internal/ckks/... ./internal/cluster/... ./internal/serve/...
	$(GO) test -race -run 'Cluster|Evaluate' ./internal/fhir/
	$(GO) test -race -short ./internal/hefloat/ ./internal/conformance/

ci:
	sh scripts/ci.sh

# The repository benchmark: the five BENCHMARK.json workloads at full scale
# through the same run.sh the driver uses (results in bench/out/). Follow with
# scripts/bench_history.sh to append the run to BENCH_history.jsonl, the only
# checked-in measurement, and read it against the previous line.
bench:
	for w in $(WORKLOADS); do \
		bash bench/run.sh --workload $$w || exit 1; \
	done

# The repository benchmark (bench/, BENCHMARK.json) is a module of its own, so
# `go build ./...` does not see an API deletion that breaks it. Vet and test
# it, then run every workload once at smoke scale (tiny parameters, a
# 2-second timed loop) through the same run.sh the driver uses.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .
	for w in $(WORKLOADS); do \
		bash bench/run.sh -scale smoke -seconds 2 -workload $$w || exit 1; \
	done

# Short fuzz passes, 10 s each (scripts/ci.sh runs this same list): the ISA
# task-program decoder, the simulator against its reference scheduler on
# programs with repeated steps, the differential modular-arithmetic fuzzer
# (Barrett/Shoup vs math/big), the RNS base conversions (keyswitch
# ModUp/ModDown vs math/big), the ciphertext wire decoder, the word-sized
# plaintext encoder and decoder against their math/big oracles, the IR pass
# pipeline on real ciphertexts (optimized and naive compiles against the
# interpreter, each evaluated twice on one evaluator), and hostile card
# scripts against the cluster runtime (every Run returns by its deadline, no
# goroutine left).
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=10s -run '^$$' ./internal/isa/
	$(GO) test -fuzz=FuzzRunMatchesOracle -fuzztime=10s -run '^$$' ./internal/sim/
	$(GO) test -fuzz=FuzzModularOps -fuzztime=10s -run '^$$' ./internal/ring/
	$(GO) test -fuzz=FuzzBaseConversion -fuzztime=10s -run '^$$' ./internal/ring/
	$(GO) test -fuzz=FuzzUnmarshalCiphertext -fuzztime=10s -run '^$$' ./internal/ckks/
	$(GO) test -fuzz=FuzzEncodeResidues -fuzztime=10s -run '^$$' ./internal/ckks/
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run '^$$' ./internal/ckks/
	$(GO) test -fuzz=FuzzIRPasses -fuzztime=10s -run '^$$' ./internal/fhir/
	$(GO) test -fuzz=FuzzClusterScripts -fuzztime=10s -run '^$$' ./internal/cluster/

# Regenerate the experiment golden snapshots after an intentional change.
golden-update:
	$(GO) test ./internal/experiments/ -run TestGolden -update

# Cross-engine conformance matrix: the full program corpus (including the
# heavy bootstrap program) against the reference, optimized, cluster, sim and
# ir engines, with every cell checked against its precision budget and the
# checked-in golden pass matrix. See DESIGN.md "Cross-engine conformance".
conformance:
	$(GO) test -count=1 -v -run TestConformanceMatrix ./internal/conformance/

# Re-bless the conformance golden matrix after intentionally growing the
# corpus or changing engine coverage. Refuses to run from a failing or
# -short (reduced) matrix. The package path must precede -update or go test
# hands the flag to the root package's test binary, which doesn't define it.
conformance-update:
	$(GO) test ./internal/conformance/ -count=1 -run TestConformanceMatrix -update

# Non-test, non-generated Go lines per package and in total — the number
# ROADMAP aim 2 tracks, counted by a tool so PR descriptions quote the same
# figure. `make loc` for the whole repo; scripts/loc.sh <dir>... for a subset.
loc:
	sh scripts/loc.sh
