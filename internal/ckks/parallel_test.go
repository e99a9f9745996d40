package ckks

// Differential parallel-vs-serial harness: every evaluator operation is run
// twice on identical inputs and keys — once with the limb pool forced serial,
// once fanned out across workers — and the resulting ciphertexts must be
// bit-identical. This is the executable statement of the execution layer's
// contract: scheduling must never change results, because limbs are
// independent and modular arithmetic is exact.

import (
	"fmt"
	"testing"

	"hydra/internal/ring"
)

func ctBitIdentical(a, b *Ciphertext) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("one result is nil")
		}
		return nil
	}
	if a.Scale != b.Scale {
		return fmt.Errorf("scale %g vs %g", a.Scale, b.Scale)
	}
	if !a.C0.Equal(b.C0) {
		return fmt.Errorf("C0 differs")
	}
	if !a.C1.Equal(b.C1) {
		return fmt.Errorf("C1 differs")
	}
	return nil
}

// diffOp runs op in forced-serial then parallel mode and compares bitwise.
func diffOp(t *testing.T, name string, op func() *Ciphertext) {
	t.Helper()
	ring.SetSerial(true)
	want := op()
	ring.SetSerial(false)
	got := op()
	if err := ctBitIdentical(got, want); err != nil {
		t.Errorf("%s: parallel differs from serial: %v", name, err)
	}
}

func runDifferentialSuite(t *testing.T, logN, levels int, seed int64) {
	// Force a real multi-worker pool even on single-core CI machines so the
	// parallel arm actually exercises helper goroutines.
	old := ring.MaxWorkers()
	ring.SetMaxWorkers(4)
	defer ring.SetMaxWorkers(old)
	defer ring.SetSerial(false)

	rots := []int{1, 2, 5, -1}
	tc := newTestContext(t, logN, levels, rots)
	vals := randomComplex(tc.params.Slots(), seed)
	vals2 := randomComplex(tc.params.Slots(), seed+1)
	pt, err := tc.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := tc.enc.Encode(vals2)
	if err != nil {
		t.Fatal(err)
	}
	ctA := tc.encr.Encrypt(pt)
	ctB := tc.encr.Encrypt(pt2)

	pt0, err := tc.enc.EncodeAtLevel(vals, tc.params.DefaultScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ct0 := tc.encr.Encrypt(pt0)

	ev := tc.eval
	ops := []struct {
		name string
		fn   func() *Ciphertext
	}{
		{"Add", func() *Ciphertext { return ev.Add(ctA, ctB) }},
		{"Sub", func() *Ciphertext { return ev.Sub(ctA, ctB) }},
		{"Neg", func() *Ciphertext { return ev.Neg(ctA) }},
		{"AddConst", func() *Ciphertext { return ev.AddConst(ctA, 1.25) }},
		{"MulPlain", func() *Ciphertext { return ev.MulPlain(ctA, pt2) }},
		{"MulByConst", func() *Ciphertext { return ev.MulByConst(ctA, -0.75) }},
		{"CMult", func() *Ciphertext { return ev.MulRelin(ctA, ctB) }},
		{"CMult+Rescale", func() *Ciphertext { return ev.Rescale(ev.MulRelin(ctA, ctB)) }},
		{"PMult+Rescale", func() *Ciphertext { return ev.Rescale(ev.MulPlain(ctA, pt2)) }},
		{"Rotate", func() *Ciphertext { return ev.Rotate(ctA, 2) }},
		{"RotateNeg", func() *Ciphertext { return ev.Rotate(ctA, -1) }},
		{"Conjugate", func() *Ciphertext { return ev.Conjugate(ctA) }},
		{"RaiseModulus", func() *Ciphertext { return ev.RaiseModulus(ct0) }},
	}
	for _, op := range ops {
		diffOp(t, op.name, op.fn)
	}

	// RotateHoisted: one decomposition shared by several rotations.
	hoist := func() map[int]*Ciphertext { return ev.RotateHoisted(ctA, rots) }
	ring.SetSerial(true)
	want := hoist()
	ring.SetSerial(false)
	got := hoist()
	for _, r := range rots {
		if err := ctBitIdentical(got[r], want[r]); err != nil {
			t.Errorf("RotateHoisted(%d): parallel differs from serial: %v", r, err)
		}
	}
}

func TestParallelSerialDifferential(t *testing.T) {
	// Property-style sweep: several parameter sets (including the required
	// N = 2^12) and several input seeds.
	cases := []struct {
		logN, levels int
		seeds        []int64
	}{
		{4, 2, []int64{1, 2, 3}},
		{6, 3, []int64{4, 5}},
		{12, 3, []int64{6}}, // N = 2^12
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("logN=%d/levels=%d/seed=%d", c.logN, c.levels, seed), func(t *testing.T) {
				runDifferentialSuite(t, c.logN, c.levels, seed)
			})
		}
	}
}

// TestParallelSerialDifferentialScratchReuse runs the CMult chain twice in
// parallel mode so the second pass consumes recycled scratch buffers and
// rows — catching any stale-state leak through the pools.
func TestParallelSerialDifferentialScratchReuse(t *testing.T) {
	old := ring.MaxWorkers()
	ring.SetMaxWorkers(4)
	defer ring.SetMaxWorkers(old)
	defer ring.SetSerial(false)
	tc := newTestContext(t, 6, 3, []int{1})
	vals := randomComplex(tc.params.Slots(), 9)
	pt, err := tc.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)

	chain := func() *Ciphertext {
		x := tc.eval.Rescale(tc.eval.MulRelin(ct, ct))
		return tc.eval.Rotate(x, 1)
	}
	ring.SetSerial(true)
	want := chain()
	ring.SetSerial(false)
	first := chain()
	second := chain()
	if err := ctBitIdentical(first, want); err != nil {
		t.Fatalf("first parallel pass differs: %v", err)
	}
	if err := ctBitIdentical(second, want); err != nil {
		t.Fatalf("second parallel pass (recycled scratch) differs: %v", err)
	}
}
