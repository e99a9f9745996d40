package ckks

import (
	"fmt"
	"testing"

	"hydra/internal/ring"
)

// The deferred ModDown commutes exactly with the Q-basis fold:
// (P·τ(c0) + acc0 − rem)/P = τ(c0) + (acc0 − rem)/P, because the folded term
// is an exact multiple of P and leaves the P-row untouched. A single rotation
// through the extended basis must therefore be bit-identical to Rotate.
func TestRotateExtBitIdenticalToRotate(t *testing.T) {
	rots := []int{1, 2, 5, -1}
	tc := newTestContext(t, 6, 3, rots)
	vals := randomComplex(tc.params.Slots(), 11)
	pt, err := tc.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)

	for _, rot := range append([]int{0}, rots...) {
		got := tc.eval.ModDownExt(tc.eval.RotateExt(ct, rot))
		want := tc.eval.Rotate(ct, rot)
		if err := ctBitIdentical(got, want); err != nil {
			t.Errorf("rot %d: extended-basis path differs from Rotate: %v", rot, err)
		}
	}
}

// MulPlainExtAcc, the single extended-basis accumulate entry point, against
// the Q-basis operations it replaces.
//
// One term: multiplying a lifted ciphertext by an extended plaintext and
// folding back down is exact — the lift's P-row is zero, so the ModDown
// subtracts nothing — and the result must be bit-identical to MulPlain. This
// also pins EncodeExtAtLevel's Q-rows to EncodeAtLevel's.
//
// k terms: a hoisted weighted sum Σ w_k ⊙ τ_k(ct) folded in one call must be
// bit-identical to folding the same pairs one call at a time (the 128-bit
// sums differ only in where they reduce, and the closing sweep makes every
// congruent row canonical), and must decrypt to the sum of per-rotation
// Rotate+MulPlain results; the single deferred rounding only shrinks the
// error. The 7/8/9/17-term cases straddle the kernel's ring.RowMACFold chunk;
// terms past the distinct rotations reuse them through copies, so the
// stepwise reference releases every row exactly once.
func TestMulPlainExtAcc(t *testing.T) {
	kRots := []int{0, 1, 2, 5, -1}
	for _, c := range []struct {
		name  string
		rots  []int
		terms int
	}{
		{"1-term", []int{0}, 1},
		{"k-term", kRots, len(kRots)},
		{"7-term", kRots, 7},
		{"8-term", kRots, 8},
		{"9-term", kRots, 9},
		{"17-term", kRots, 17},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestContext(t, 6, 3, []int{1, 2, 5, -1})
			pt, err := tc.enc.Encode(randomComplex(tc.params.Slots(), 12))
			if err != nil {
				t.Fatal(err)
			}
			ct := tc.encr.Encrypt(pt)
			lvl := ct.Level()
			scale := tc.params.DefaultScale()

			exts := tc.eval.RotateHoistedExt(ct, c.rots)
			xs := make([]*ExtCiphertext, c.terms)
			wExts := make([]*ExtPlaintext, c.terms)
			var want *Ciphertext
			for i := range xs {
				rot := c.rots[i%len(c.rots)]
				weights := randomComplex(tc.params.Slots(), int64(13+i))
				wPlain, err := tc.enc.EncodeAtLevel(weights, scale, lvl)
				if err != nil {
					t.Fatal(err)
				}
				if wExts[i], err = tc.enc.EncodeExtAtLevel(weights, scale, lvl); err != nil {
					t.Fatal(err)
				}
				xs[i] = exts[rot]
				if i >= len(c.rots) {
					xs[i] = cloneExt(tc.eval, exts[rot])
				}
				term := tc.eval.MulPlain(tc.eval.Rotate(ct, rot), wPlain)
				if want == nil {
					want = term
				} else {
					tc.eval.AddAcc(term, want)
				}
			}

			acc := tc.eval.NewExtAccumulator(lvl, ct.Scale*scale)
			tc.eval.MulPlainExtAcc(xs, wExts, acc)
			stepwise := tc.eval.NewExtAccumulator(lvl, ct.Scale*scale)
			for i := range xs {
				tc.eval.MulPlainExtAcc(xs[i:i+1], wExts[i:i+1], stepwise)
				tc.eval.ReleaseExt(xs[i])
			}
			got := tc.eval.ModDownExt(acc)
			if err := ctBitIdentical(got, tc.eval.ModDownExt(stepwise)); err != nil {
				t.Fatalf("one fold differs from term-at-a-time folds: %v", err)
			}

			if c.terms == 1 {
				if err := ctBitIdentical(got, want); err != nil {
					t.Fatalf("extended-basis plaintext product differs from MulPlain: %v", err)
				}
				return
			}
			gotVals := tc.enc.Decode(tc.decr.Decrypt(got))
			wantVals := tc.enc.Decode(tc.decr.Decrypt(want))
			if e := maxErr(gotVals, wantVals); e > 1e-6 {
				t.Fatalf("hoisted weighted sum differs from per-rotation reference by %g", e)
			}
		})
	}
}

// cloneExt copies x onto fresh pooled rows.
func cloneExt(ev *Evaluator, x *ExtCiphertext) *ExtCiphertext {
	c := ev.NewExtAccumulator(x.Lvl, x.Scale)
	for jj := range x.C0 {
		copy(c.C0[jj], x.C0[jj])
		copy(c.C1[jj], x.C1[jj])
	}
	return c
}

// Folding several hoisted rotations in the extended basis with one closing
// ModDown must decrypt to the same value as summing per-rotation Rotate
// results; the single deferred rounding only shrinks the error.
func TestExtFoldedRotationsDecryptEqual(t *testing.T) {
	rots := []int{1, 2, 5, -1}
	tc := newTestContext(t, 6, 3, rots)
	vals := randomComplex(tc.params.Slots(), 14)
	pt, err := tc.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)

	exts := tc.eval.RotateHoistedExt(ct, rots)
	acc := exts[rots[0]]
	for _, rot := range rots[1:] {
		tc.eval.AddExtAcc(exts[rot], acc)
		tc.eval.ReleaseExt(exts[rot])
	}
	got := tc.eval.ModDownExt(acc)

	want := tc.eval.Rotate(ct, rots[0])
	for _, rot := range rots[1:] {
		tc.eval.AddAcc(tc.eval.Rotate(ct, rot), want)
	}

	gotVals := tc.enc.Decode(tc.decr.Decrypt(got))
	wantVals := tc.enc.Decode(tc.decr.Decrypt(want))
	if e := maxErr(gotVals, wantVals); e > 1e-6 {
		t.Fatalf("deferred-ModDown fold differs from per-rotation reference by %g", e)
	}
}

// Serial and parallel scheduling of the extended-basis path must agree
// bitwise, like every other evaluator operation.
func TestParallelSerialDifferentialExt(t *testing.T) {
	old := ring.MaxWorkers()
	ring.SetMaxWorkers(4)
	defer ring.SetMaxWorkers(old)
	defer ring.SetSerial(false)

	rots := []int{1, 2, 5, -1}
	for _, c := range []struct{ logN, levels int }{{4, 2}, {6, 3}} {
		t.Run(fmt.Sprintf("logN=%d", c.logN), func(t *testing.T) {
			tc := newTestContext(t, c.logN, c.levels, rots)
			vals := randomComplex(tc.params.Slots(), 15)
			pt, err := tc.enc.Encode(vals)
			if err != nil {
				t.Fatal(err)
			}
			ct := tc.encr.Encrypt(pt)
			wExt, err := tc.enc.EncodeExtAtLevel(vals, tc.params.DefaultScale(), ct.Level())
			if err != nil {
				t.Fatal(err)
			}

			fold := func() *Ciphertext {
				exts := tc.eval.RotateHoistedExt(ct, rots)
				acc := tc.eval.NewExtAccumulator(ct.Level(), ct.Scale*wExt.Scale)
				xs := make([]*ExtCiphertext, len(rots))
				pts := make([]*ExtPlaintext, len(rots))
				for i, rot := range rots {
					xs[i], pts[i] = exts[rot], wExt
				}
				tc.eval.MulPlainExtAcc(xs, pts, acc)
				for _, x := range xs {
					tc.eval.ReleaseExt(x)
				}
				return tc.eval.ModDownExt(acc)
			}
			diffOp(t, "ExtFold", fold)
		})
	}
}
