package fhir

import (
	"fmt"
	"math"
	"sort"

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
	ds := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	var acc, inner *Value
	for i, d := range ds {
		g := d - d%bs
		pt := b.PlainVec(fmt.Sprintf("%s:g%d:d%d", key, g, d), lt.ShiftedDiag(d, g))
		inner = b.accum(inner, b.MulPlain(b.Rotate(x, d-g), pt))
		if i+1 == len(ds) || ds[i+1]-ds[i+1]%bs != g { // last diagonal of its group
			acc = b.accum(acc, b.Rotate(inner, g))
			inner = nil
		}
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

// Bootstrap writes the bootstrap pipeline after ModRaise, for a raised input z
// decrypting to m + q0·I (the IR has no ModRaise: the host raises the level-0
// ciphertext once before binding it): CoeffToSlot (u0 = P·z + Q·z̄, u1 = R·z +
// S·z̄, the Δ/q0 factor folded into the matrices), sin(2πu) per branch — the
// θ-scaled small-angle Taylor pair by Horner, then the double-angle
// iterations — and SlotToCoeff (A·w0 + B·w1, q0/(2πΔ) folded in). Same
// matrices, baby-step count and sine schedule as bt.Bootstrap. Only bt's
// transforms are read, so a keyless hefloat.NewBootstrapper(params, enc, nil,
// …) serves: the program can compile before the rotation keys it needs
// (Program.Rotations) exist.
func (b *Builder) Bootstrap(z *Value, bt *hefloat.Bootstrapper) *Value {
	ltP, ltQ, ltR, ltS := bt.CoeffToSlotTransforms()
	ltA, ltB := bt.SlotToCoeffTransforms()
	bs := bt.BabySteps()
	zc := b.Conjugate(z)
	u0 := b.Add(b.LinTrans(z, ltP, bs, "boot:P"), b.LinTrans(zc, ltQ, bs, "boot:Q"))
	u1 := b.Add(b.LinTrans(z, ltR, bs, "boot:R"), b.LinTrans(zc, ltS, bs, "boot:S"))

	deg, iters := bt.SineSchedule()
	theta := 2 * math.Pi / math.Pow(2, float64(iters))
	sinC := make([]float64, deg+1) // odd series up to y^deg
	cosC := make([]float64, deg+2) // even series up to y^(deg+1)
	term := 1.0
	for i := 0; i <= deg+1; i++ {
		if i > 0 {
			term /= float64(i)
		}
		c := term
		if i%4 >= 2 {
			c = -c
		}
		if i%2 == 0 {
			cosC[i] = c
		} else if i <= deg {
			sinC[i] = c
		}
	}
	sine := func(u *Value) *Value {
		y := b.MulConst(u, theta)
		sn, cs := b.Horner(y, sinC), b.Horner(y, cosC)
		for i := 0; i < iters; i++ {
			sc, ss := b.Mul(sn, cs), b.Mul(sn, sn)
			sn = b.Add(sc, sc)                       // sin 2x = 2 sin x cos x
			cs = b.AddConst(b.Neg(b.Add(ss, ss)), 1) // cos 2x = 1 - 2 sin²x
		}
		return sn
	}
	return b.Add(b.LinTrans(sine(u0), ltA, bs, "boot:A"), b.LinTrans(sine(u1), ltB, bs, "boot:B"))
}

// CCMM writes the ciphertext-ciphertext matrix product over column-packed
// k×k operands (k² = the builder's slot count): naive σ/τ pre-transforms, then
// the k combine iterations with the ψ_d main/wraparound masks — the same
// iteration structure as hefloat.CCMM, with every product left to the
// lazy-relinearization pass.
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
