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

// CopyAtLevel returns a deep copy of the rows of all three components up to
// level (no rounding; the scale is unchanged): a level drop that copies only
// the rows it keeps.
func (ct *Ciphertext2) CopyAtLevel(level int) *Ciphertext2 {
	checkDropTo(level, ct.Level())
	return &Ciphertext2{C0: atLevel(ct.C0, level).CopyNew(), C1: atLevel(ct.C1, level).CopyNew(),
		C2: atLevel(ct.C2, level).CopyNew(), Scale: ct.Scale}
}

// MulNoRelin returns the degree-2 tensor product a·b without relinearizing:
// (a0b0, a0b1 + a1b0, a1b1), at the lower of the two levels. The result's
// scale is the product. Relinearize (or a chain of Add2 folds followed by one
// Relinearize) brings it back to degree 1.
func (ev *Evaluator) MulNoRelin(a, b *Ciphertext) *Ciphertext2 {
	r := ev.params.RingQP()
	lvl := min(a.Level(), b.Level())
	out := &Ciphertext2{C0: r.NewPoly(lvl), C1: r.NewPoly(lvl), C2: r.NewPoly(lvl), Scale: a.Scale * b.Scale}
	ev.tensor(a, b, out.C0, out.C1, out.C2)
	return out
}

// Add2 returns a + b over degree-2 ciphertexts at the lower of the two
// levels. Scales must match. This is the fold step of lazy relinearization:
// relinearization is linear, so Relinearize(Add2(x, y)) agrees with
// Add(Relinearize(x), Relinearize(y)) up to keyswitch noise while paying one
// keyswitch instead of two.
func (ev *Evaluator) Add2(a, b *Ciphertext2) *Ciphertext2 {
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in Add2: %g vs %g", a.Scale, b.Scale))
	}
	r := ev.params.RingQP()
	lvl := min(a.Level(), b.Level())
	out := &Ciphertext2{C0: r.NewPoly(lvl), C1: r.NewPoly(lvl), C2: r.NewPoly(lvl), Scale: a.Scale}
	r.Add(a.C0, b.C0, out.C0)
	r.Add(a.C1, b.C1, out.C1)
	r.Add(a.C2, b.C2, out.C2)
	return out
}

// Relinearize switches the degree-2 component onto the key basis, returning
// the degree-1 ciphertext (c0 + ks0, c1 + ks1) with the same scale. This is
// the keyswitch MulRelin fuses into the tensor product, exposed separately so
// deferred (lazily accumulated) products pay it once.
func (ev *Evaluator) Relinearize(ct *Ciphertext2) *Ciphertext {
	if ev.rlk == nil {
		panic("ckks: evaluator has no relinearization key")
	}
	r := ev.params.RingQP()
	ks0, ks1 := ev.keySwitch(ct.C2, ev.rlk.Key)
	r.Add(ks0, ct.C0, ks0)
	r.Add(ks1, ct.C1, ks1)
	return &Ciphertext{C0: ks0, C1: ks1, Scale: ct.Scale}
}
