package fhir

import (
	"fmt"

	"hydra/internal/hefloat"
)

// The frontends below are the repo's IR spellings of the paper's three
// keyswitch-heavy procedures — BSGS linear transforms, polynomial evaluation
// and bootstrapping — plus the ciphertext matrix product built from them.
// They write mathematics only: per-rotation products, Horner chains, sums.
// Where rescales, relinearizations and the shared rotations go is the pass
// pipeline's business, so every caller (conformance, cmd/hydra-compile)
// exercises the compiler rather than a hand-optimized program.

// LinTrans writes a diagonal-decomposed linear transform as the BSGS
// regrouping Σ_g rot(Σ_j shifted_diag ⊙ rot(x, j), g), in plain per-rotation
// products whose sharing the hoisting pass discovers. bs <= 0 is the naive sum
// Σ_d diag_d ⊙ rot(x, d): one group, no giant step. key prefixes the plaintext
// keys, so two transforms CSE-merge their diagonals only when it is equal.
func (b *Builder) LinTrans(x *Value, lt *hefloat.LinearTransform, bs int, key string) *Value {
	if len(lt.Diags) == 0 {
		b.errf("fhir: LinTrans %q has no non-zero diagonal", key)
		return x
	}
	if bs <= 0 {
		bs = lt.Dim
	}
	var acc *Value
	for _, grp := range lt.Groups(bs) {
		var inner *Value
		for _, j := range grp.Baby {
			d := grp.Giant + j
			pt := b.PlainVec(fmt.Sprintf("%s:g%d:d%d", key, grp.Giant, d), lt.ShiftedDiag(d, grp.Giant))
			inner = b.accum(inner, b.MulPlain(b.Rotate(x, j), pt))
		}
		acc = b.accum(acc, b.Rotate(inner, grp.Giant))
	}
	return acc
}

// accum extends a running sum that starts out nil.
func (b *Builder) accum(acc, term *Value) *Value {
	if acc == nil {
		return term
	}
	return b.Add(acc, term)
}

// Horner writes p(x) = Σ coeffs[t]·x^t (degree >= 1) as a Horner chain.
func (b *Builder) Horner(x *Value, coeffs []float64) *Value {
	deg := len(coeffs) - 1
	if deg < 1 {
		b.errf("fhir: Horner needs degree >= 1, got %d coefficients", len(coeffs))
		return x
	}
	out := b.AddConst(b.MulConst(x, coeffs[deg]), coeffs[deg-1])
	for t := deg - 2; t >= 0; t-- {
		out = b.AddConst(b.Mul(out, x), coeffs[t])
	}
	return out
}

// Bootstrap writes the bootstrap pipeline d describes, after ModRaise, for a
// raised input z decrypting to m + q0·I (the IR has no ModRaise: the host
// raises the level-0 ciphertext once before binding it): CoeffToSlot (u0 = P·z
// + Q·z̄, u1 = R·z + S·z̄), sin(2πu) per branch — the θ-scaled small-angle
// Taylor pair by Horner, then the double-angle iterations — and SlotToCoeff
// (A·w0 + B·w1). The description is plain data built without keys, so the
// program can compile before the rotation keys it needs (Program.Rotations)
// exist; hefloat's Bootstrapper executes the same description by hand.
func (b *Builder) Bootstrap(z *Value, d *hefloat.BootstrapDesc) *Value {
	bs := d.BabySteps
	zc := b.Conjugate(z)
	u0 := b.Add(b.LinTrans(z, d.P, bs, "boot:P"), b.LinTrans(zc, d.Q, bs, "boot:Q"))
	u1 := b.Add(b.LinTrans(z, d.R, bs, "boot:R"), b.LinTrans(zc, d.S, bs, "boot:S"))
	sine := func(u *Value) *Value {
		y := b.MulConst(u, d.Theta)
		sn, cs := b.Horner(y, d.Sin), b.Horner(y, d.Cos)
		for i := 0; i < d.DAFIters; i++ {
			sc, ss := b.Mul(sn, cs), b.Mul(sn, sn)
			sn = b.Add(sc, sc)                       // sin 2x = 2 sin x cos x
			cs = b.AddConst(b.Neg(b.Add(ss, ss)), 1) // cos 2x = 1 - 2 sin²x
		}
		return sn
	}
	return b.Add(b.LinTrans(sine(u0), d.A, bs, "boot:A"), b.LinTrans(sine(u1), d.B, bs, "boot:B"))
}

// CCMM writes the ciphertext-ciphertext matrix product over column-packed
// k×k operands (k² = the builder's slot count): naive σ/τ pre-transforms, then
// the k combine iterations Σ_d φ_d(σ(X)) ⊙ ψ_d(τ(Z)) with the ψ_d
// main/wraparound masks (hefloat.CCMMMasks), every product left to the
// lazy-relinearization pass. This is the repo's one ciphertext matrix product;
// the plaintext-weights product is LinTrans over hefloat.NewPCMMTransform.
func (b *Builder) CCMM(x, z *Value) *Value {
	k := 1
	for k*k < b.slots {
		k++
	}
	if k*k != b.slots {
		b.errf("fhir: CCMM needs a square slot count, got %d", b.slots)
		return x
	}
	sigma, errS := hefloat.NewLinearTransform(hefloat.CCMMSigma(k))
	tau, errT := hefloat.NewLinearTransform(hefloat.CCMMTau(k))
	if errS != nil || errT != nil {
		b.errf("fhir: CCMM pre-transforms: %v, %v", errS, errT)
		return x
	}
	a := b.LinTrans(x, sigma, 0, "ccmm:sigma")
	bb := b.LinTrans(z, tau, 0, "ccmm:tau")
	var acc *Value
	for d := 0; d < k; d++ {
		ad := b.Rotate(a, d*k)
		maskMain, maskWrap := hefloat.CCMMMasks(k, d)
		var bd *Value
		if d == 0 {
			bd = b.MulPlain(bb, b.PlainVec("ccmm:mask0", maskMain))
		} else {
			main := b.MulPlain(b.Rotate(bb, d), b.PlainVec(fmt.Sprintf("ccmm:m%d", d), maskMain))
			wrap := b.MulPlain(b.Rotate(bb, d-k), b.PlainVec(fmt.Sprintf("ccmm:w%d", d), maskWrap))
			bd = b.Add(main, wrap)
		}
		acc = b.accum(acc, b.Mul(ad, bd))
	}
	return acc
}
