package ckks

import (
	"math"
	"testing"

	"hydra/internal/ring"
)

// divRoundByModulusOracle is the textbook rescale of one component: bring
// every row of p (NTT domain, level top) to coefficients, compute
// (p_j − [p_top]_centered)·q_top^-1 there, and transform the level top−1
// result back — 2·top+1 transforms per component.
func divRoundByModulusOracle(r *ring.Ring, p *ring.Poly, top int) *ring.Poly {
	qLast := r.Moduli[top]
	work := p.CopyNew()
	r.INTT(work)
	out := r.NewPoly(top - 1)
	for j := 0; j < top; j++ {
		qj := r.Moduli[j]
		inv := ring.InvMod(ring.Reduce(qLast, qj), qj)
		invShoup := ring.ShoupPrecomp(inv, qj)
		src, rem, dst := work.Coeffs[j], work.Coeffs[top], out.Coeffs[j]
		for t := range dst {
			rr := ring.CenteredMod(rem[t], qLast, qj)
			dst[t] = ring.MulModShoup(ring.SubMod(src[t], rr, qj), inv, invShoup, qj)
		}
	}
	r.NTT(out)
	return out
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestRescaleMatchesOracle pins Rescale, which transforms only the row it
// drops, bit-identical to the coefficient-domain oracle in both components,
// at every level of a 17-limb chain and of the he-boot shape (21 limbs,
// α = 7), and checks that its two preconditions still panic.
func TestRescaleMatchesOracle(t *testing.T) {
	for _, shape := range []struct{ logN, levels int }{{10, 16}, {9, 20}} {
		params := TestParameters(shape.logN, shape.levels)
		kg := NewKeyGenerator(params, 3)
		enc := NewEncoder(params)
		encr := NewEncryptor(params, kg.GenPublicKey(kg.GenSecretKey()), 4)
		ev := NewEvaluator(params, nil, nil)
		r := params.RingQP()
		encrypt := func(lvl int) *Ciphertext {
			pt, err := enc.EncodeAtLevel(randomComplex(params.Slots(), int64(lvl)), params.DefaultScale(), lvl)
			if err != nil {
				t.Fatal(err)
			}
			return encr.Encrypt(pt)
		}
		for lvl := 1; lvl <= params.MaxLevel(); lvl++ {
			ct := encrypt(lvl)
			want := &Ciphertext{
				C0:    divRoundByModulusOracle(r, ct.C0, lvl),
				C1:    divRoundByModulusOracle(r, ct.C1, lvl),
				Scale: ct.Scale / float64(r.Moduli[lvl]),
			}
			if err := ctBitIdentical(ev.Rescale(ct), want); err != nil {
				t.Fatalf("logN=%d level %d: Rescale differs from the oracle: %v", shape.logN, lvl, err)
			}
		}

		coeff := encrypt(1)
		coeff.C1.IsNTT = false
		if !panics(func() { ev.Rescale(encrypt(0)) }) || !panics(func() { ev.Rescale(coeff) }) {
			t.Errorf("logN=%d: Rescale at level 0 or of a coefficient-domain ciphertext did not panic", shape.logN)
		}
	}
}

// TestConstOutOfRangePanics: a constant whose scaled magnitude is NaN,
// infinite or at least 2^64 used to wrap silently into a word (AddConst
// decrypted to ≈ 2^63/scale in every slot, MulByConst(+Inf) left a NaN
// scale); AddConst and MulByConstWithScale now refuse it, and the largest
// constants that fit still go through.
func TestConstOutOfRangePanics(t *testing.T) {
	tc := newTestContext(t, 6, 2, nil)
	pt, err := encodeMax(tc.enc, randomComplex(tc.params.Slots(), 5))
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e30, -1e30} {
		if !panics(func() { tc.eval.AddConst(ct, c) }) {
			t.Errorf("AddConst(%g) did not panic", c)
		}
		if !panics(func() { tc.eval.MulByConst(ct, c) }) {
			t.Errorf("MulByConst(%g) did not panic", c)
		}
	}
	if !panics(func() { tc.eval.MulByConstWithScale(ct, 1, math.Inf(1)) }) {
		t.Error("MulByConstWithScale at an infinite scale did not panic")
	}
	fits := math.Nextafter(math.Ldexp(1, 64), 0) / tc.params.DefaultScale() // the largest |c|·scale below 2^64
	if panics(func() { tc.eval.AddConst(ct, -fits) }) || panics(func() { tc.eval.MulByConst(ct, fits) }) {
		t.Errorf("a constant %g whose scaled magnitude fits a word panicked", fits)
	}
}
