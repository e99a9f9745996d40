package ckks

import (
	"fmt"

	"hydra/internal/ring"
)

// Ciphertext2 is a degree-2 RLWE ciphertext (c0, c1, c2) in the NTT domain —
// the un-relinearized tensor product of two degree-1 ciphertexts. Decryption
// computes c0 + c1·s + c2·s². Degree-2 ciphertexts exist to make
// relinearization deferrable: sums of products can be folded in this form and
// pay a single keyswitch, instead of one per product.
type Ciphertext2 struct {
	C0, C1, C2 *ring.Poly
	Scale      float64
}

// Level returns the ciphertext level.
func (ct *Ciphertext2) Level() int { return ct.C0.Level() }

// ViewAtLevel returns ct dropped to level (no rounding; the scale is
// unchanged) as a view: its components share ct's rows up to level, and
// nothing is copied.
func (ct *Ciphertext2) ViewAtLevel(level int) *Ciphertext2 {
	checkDropTo(level, ct.Level())
	return &Ciphertext2{C0: atLevel(ct.C0, level), C1: atLevel(ct.C1, level), C2: atLevel(ct.C2, level), Scale: ct.Scale}
}

// newCiphertext2 is newCiphertext for a degree-2 result.
func (ev *Evaluator) newCiphertext2(lvl int, scale float64) *Ciphertext2 {
	return &Ciphertext2{C0: ev.params.pooledPoly(lvl), C1: ev.params.pooledPoly(lvl), C2: ev.params.pooledPoly(lvl), Scale: scale}
}

// MulNoRelin returns the degree-2 tensor product a·b without relinearizing:
// (a0b0, a0b1 + a1b0, a1b1), at the lower of the two levels. The result's
// scale is the product. RelinearizeExt (or a chain of Add2 folds followed by
// one RelinearizeExt) brings it back to degree 1.
func (ev *Evaluator) MulNoRelin(a, b *Ciphertext) *Ciphertext2 {
	out := ev.newCiphertext2(min(a.Level(), b.Level()), a.Scale*b.Scale)
	ev.tensor(a, b, out.C0, out.C1, out.C2)
	return out
}

// Add2 returns a + b over degree-2 ciphertexts at the lower of the two
// levels. Scales must match. This is the fold step of lazy relinearization:
// relinearization is linear, so relinearizing Add2(x, y) agrees with adding
// the relinearized x and y up to keyswitch noise while paying one keyswitch
// instead of two.
func (ev *Evaluator) Add2(a, b *Ciphertext2) *Ciphertext2 {
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in Add2: %g vs %g", a.Scale, b.Scale))
	}
	r := ev.params.RingQP()
	out := ev.newCiphertext2(min(a.Level(), b.Level()), a.Scale)
	r.Add(a.C0, b.C0, out.C0)
	r.Add(a.C1, b.C1, out.C1)
	r.Add(a.C2, b.C2, out.C2)
	return out
}

// RelinearizeExt switches the degree-2 component onto the key basis with the
// keyswitch's ModDown deferred: the accumulator of C2 in the extended basis,
// with P·C0 and P·C1 folded into its Q rows, at the same scale. ModDownExt of
// it is the relinearized degree-1 ciphertext — MulRelin's result for a tensor
// product — and ModDownExtRescale that ciphertext rescaled, word for word.
// Exposed apart from MulRelin so deferred (lazily accumulated) products pay
// one keyswitch, and a following rescale rides its ModDown.
func (ev *Evaluator) RelinearizeExt(ct *Ciphertext2) *ExtCiphertext {
	return ev.relinExt(ct.C0, ct.C1, ct.C2, ct.Scale)
}

// relinExt is the one relinearization keyswitch: decompose c2, multiply
// against the relinearization key, fold in P·(c0, c1).
func (ev *Evaluator) relinExt(c0, c1, c2 *ring.Poly, scale float64) *ExtCiphertext {
	if ev.rlk == nil {
		panic("ckks: evaluator has no relinearization key")
	}
	h := ev.decomposeExt(c2)
	acc0, acc1 := ev.ksAccum(h, 1, ev.rlk.Key)
	h.release(ev.params.RingQP())
	e := &ExtCiphertext{Lvl: c2.Level(), C0: acc0, C1: acc1, Scale: scale}
	ev.addLifted(e, c0, c1)
	return e
}
