package ring

import "sync"

// Dispatch seam for the codegen-specialized NTT kernels.
//
// cmd/hydra-genkernels emits ntt_gen.go: one fully specialized forward and
// inverse kernel per shipped ring degree (see shipped.go), with every stage's
// block count and stride a compile-time literal, the bit-reverse permutation
// fused into the first (inverse) or last (forward) butterfly pass, and — for
// the forward — the correction-free lazy schedule described at
// GeneratedQBound. The kernels register themselves here from init().
//
// Which kernel a table runs is decided once, in NewNTTTable, from what the
// table can observe: the specialized pair when the degree is in
// ShippedKernelLogNs and q < GeneratedQBound, the generic merged kernel
// otherwise. There is no switch to flip: both kernels produce identical
// canonical output (pinned in-package by TestNTTKernelSelection, which calls
// the generic kernel directly).

// generatedKernel is one specialized transform: it reads a, may use the
// N-word scratch row as a ping-pong buffer, and leaves the result in a.
type generatedKernel func(t *NTTTable, a, scratch []uint64)

type generatedKernelPair struct {
	forward generatedKernel
	inverse generatedKernel
}

var generatedKernels = map[int]generatedKernelPair{}

// registerGeneratedKernels is called from ntt_gen.go's init. Registering a
// degree twice is a build-wiring bug, not a runtime condition.
func registerGeneratedKernels(logN int, fwd, inv generatedKernel) {
	if _, dup := generatedKernels[logN]; dup {
		panic("ring: duplicate generated kernel registration")
	}
	generatedKernels[logN] = generatedKernelPair{forward: fwd, inverse: inv}
}

// initGenerated wires a freshly built table to its specialized kernels when
// the degree ships a pair and the modulus is below GeneratedQBound; otherwise
// t.gen stays nil and the table runs the generic merged kernel. Called from
// NewNTTTable.
func (t *NTTTable) initGenerated() {
	k, ok := generatedKernels[t.LogN]
	if !ok || t.Mod.Q >= GeneratedQBound {
		return
	}
	t.gen = &k
	n := t.N
	t.genScratch = &sync.Pool{New: func() any {
		row := make([]uint64, n)
		return &row
	}}
}

// forwardGenerated runs the specialized forward kernel with a pooled
// ping-pong row. The scratch row never escapes the call.
func (t *NTTTable) forwardGenerated(a []uint64) {
	sp := t.genScratch.Get().(*[]uint64)
	t.gen.forward(t, a, *sp)
	t.genScratch.Put(sp)
}

// inverseGenerated runs the specialized inverse kernel with a pooled
// ping-pong row.
func (t *NTTTable) inverseGenerated(a []uint64) {
	sp := t.genScratch.Get().(*[]uint64)
	t.gen.inverse(t, a, *sp)
	t.genScratch.Put(sp)
}

// ForwardBatch runs the forward NTT over every row, sharing one scratch
// ping-pong row across the whole batch instead of a pool round trip per
// transform — the keyswitch digit decomposition pushes all of a table's
// digit rows through it in one call. Rows must all have length N and obey
// Forward's input contract. Output is bit-identical to calling Forward on
// each row.
func (t *NTTTable) ForwardBatch(rows [][]uint64) {
	if t.gen == nil {
		for _, row := range rows {
			t.Forward(row)
		}
		return
	}
	sp := t.genScratch.Get().(*[]uint64)
	for _, row := range rows {
		t.gen.forward(t, row, *sp)
	}
	t.genScratch.Put(sp)
}
