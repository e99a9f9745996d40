// Package hydra is a reproduction of "Hydra: Scale-out FHE Accelerator
// Architecture for Secure Deep Learning on FPGA" (HPCA 2025): a functional
// RNS-CKKS implementation (internal/ring, internal/ckks, internal/hefloat),
// an analytic model of the Hydra/FAB/Poseidon accelerator cards and their
// interconnects (internal/hw), the paper's task decomposition and mapping
// strategies for CNN and LLM inference including multi-card bootstrapping
// (internal/mapping), a discrete-event simulator of the scale-out system
// with the Procedure 1 synchronization mechanism (internal/task,
// internal/sim), a binary instruction format for host preloading
// (internal/isa), a functional multi-card runtime operating on real
// ciphertexts (internal/cluster), the evaluation benchmarks
// (internal/model), and generators for every table and figure of the
// paper's evaluation section (internal/experiments).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured vs
// published results. cmd/hydrasim prints each table and figure; bench/ is
// the repository benchmark (BENCHMARK.json), and BENCH_history.jsonl, kept
// well-formed by history_test.go, is the only checked-in measurement.
package hydra
