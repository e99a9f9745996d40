package ring

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewRingValidation(t *testing.T) {
	good := GenerateNTTPrimes(40, 64, 2)
	if _, err := NewRing(48, good); err == nil {
		t.Fatal("expected error for non power-of-two degree")
	}
	if _, err := NewRing(64, nil); err == nil {
		t.Fatal("expected error for empty moduli")
	}
	if _, err := NewRing(64, []uint64{good[0], good[0]}); err == nil {
		t.Fatal("expected error for duplicate moduli")
	}
	if _, err := NewRing(64, []uint64{97}); err == nil {
		t.Fatal("expected error for non-NTT-friendly modulus")
	}
	if _, err := NewRing(64, good); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPolyLevelsAndCopy(t *testing.T) {
	r := testRing(t, 64, 3)
	p := r.NewPoly(2)
	if p.Level() != 2 {
		t.Fatalf("level = %d, want 2", p.Level())
	}
	s := NewSampler(r, 1)
	s.Uniform(p)
	cp := p.CopyNew()
	if !cp.Equal(p) {
		t.Fatal("copy differs from original")
	}
	cp.Coeffs[0][0]++
	if cp.Equal(p) {
		t.Fatal("mutating copy affected original equality")
	}
	p.DropLevel()
	if p.Level() != 1 {
		t.Fatalf("level after drop = %d, want 1", p.Level())
	}
}

func TestRingAddSubNeg(t *testing.T) {
	r := testRing(t, 128, 2)
	s := NewSampler(r, 2)
	a, b := r.NewPoly(1), r.NewPoly(1)
	s.Uniform(a)
	s.Uniform(b)
	sum, diff, neg := r.NewPoly(1), r.NewPoly(1), r.NewPoly(1)
	r.Add(a, b, sum)
	r.Sub(sum, b, diff)
	if !diff.Equal(a) {
		t.Fatal("(a+b)-b != a")
	}
	r.Neg(a, neg)
	r.Add(a, neg, sum)
	for i := range sum.Coeffs {
		for _, c := range sum.Coeffs[i] {
			if c != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
}

func TestRingMulCoeffsIsNegacyclicMul(t *testing.T) {
	r := testRing(t, 32, 1)
	s := NewSampler(r, 3)
	a, b := r.NewPoly(0), r.NewPoly(0)
	s.Uniform(a)
	s.Uniform(b)
	want := naiveNegacyclicMul(a.Coeffs[0], b.Coeffs[0], r.Moduli[0])

	r.NTT(a)
	r.NTT(b)
	prod := r.NewPoly(0)
	r.MulCoeffs(a, b, prod)
	r.INTT(prod)
	for i, w := range want {
		if prod.Coeffs[0][i] != w {
			t.Fatalf("product mismatch at %d", i)
		}
	}
}

// SetBigInt sets p's coefficients (coefficient domain) from integers, reduced
// modulo each residue: the test-side inverse of ToBigInt. The encoder that
// used it in production reduces machine words now (Modulus.ReduceSignedRow).
func (r *Ring) SetBigInt(vals []*big.Int, p *Poly) {
	tmp := new(big.Int)
	for i := range p.Coeffs {
		q := new(big.Int).SetUint64(r.Moduli[i])
		for j := 0; j < r.N; j++ {
			tmp.Mod(vals[j], q)
			p.Coeffs[i][j] = tmp.Uint64()
		}
	}
	p.IsNTT = false
}

func TestBigIntRoundTrip(t *testing.T) {
	r := testRing(t, 32, 3)
	s := NewSampler(r, 6)
	p := r.NewPoly(2)
	s.Uniform(p)
	vals := make([]*big.Int, r.N)
	r.ToBigInt(p, vals)
	back := r.NewPoly(2)
	r.SetBigInt(vals, back)
	if !back.Equal(p) {
		t.Fatal("big.Int round trip failed")
	}
}

// automorphismCoeff applies τ_k in the coefficient domain, by the definition
// a(X) → a(X^k): the oracle for the NTT-domain index permutation. out gets the
// image of in (same level). k must be odd. in and out must not alias.
func (r *Ring) automorphismCoeff(in *Poly, k uint64, out *Poly) {
	if in.IsNTT {
		panic("ring: automorphismCoeff requires coefficient domain")
	}
	if k%2 == 0 {
		panic("ring: Galois element must be odd")
	}
	n := uint64(r.N)
	m := 2 * n
	lvl := in.Level()
	if out.Level() < lvl {
		lvl = out.Level()
	}
	ForEachLimb(lvl+1, func(i int) {
		q := r.Moduli[i]
		src, dst := in.Coeffs[i], out.Coeffs[i]
		for j := uint64(0); j < n; j++ {
			idx := (j * k) % m
			if idx < n {
				dst[idx] = src[j]
			} else {
				dst[idx-n] = NegMod(src[j], q)
			}
		}
	})
	out.IsNTT = false
}

func TestAutomorphismCoeffComposition(t *testing.T) {
	r := testRing(t, 64, 1)
	s := NewSampler(r, 7)
	a := r.NewPoly(0)
	s.Uniform(a)
	// τ_k ∘ τ_k' = τ_{kk' mod 2N}.
	k1 := GaloisElementForRotation(r.N, 3)
	k2 := GaloisElementForRotation(r.N, 5)
	t1, t2, direct := r.NewPoly(0), r.NewPoly(0), r.NewPoly(0)
	r.automorphismCoeff(a, k1, t1)
	r.automorphismCoeff(t1, k2, t2)
	k12 := (k1 * k2) % uint64(2*r.N)
	r.automorphismCoeff(a, k12, direct)
	if !t2.Equal(direct) {
		t.Fatal("automorphism composition failed")
	}
}

func TestAutomorphismNTTMatchesCoeff(t *testing.T) {
	r := testRing(t, 128, 2)
	s := NewSampler(r, 8)
	a := r.NewPoly(1)
	s.Uniform(a)
	for _, rot := range []int{1, 2, 7, -1} {
		k := GaloisElementForRotation(r.N, rot)
		// Coefficient-domain path.
		viaCoeff := r.NewPoly(1)
		r.automorphismCoeff(a, k, viaCoeff)
		r.NTT(viaCoeff)
		// NTT-domain path.
		aNTT := a.CopyNew()
		r.NTT(aNTT)
		viaNTT := r.NewPoly(1)
		perm := AutomorphismNTTIndex(r.N, k)
		r.AutomorphismNTT(aNTT, perm, viaNTT)
		if !viaNTT.Equal(viaCoeff) {
			t.Fatalf("rot=%d: NTT-domain automorphism differs from coefficient-domain", rot)
		}
	}
}

func TestGaloisElements(t *testing.T) {
	n := 64
	if k := GaloisElementForRotation(n, 0); k != 1 {
		t.Fatalf("rotation 0 element = %d, want 1", k)
	}
	if k := GaloisElementConjugate(n); k != uint64(2*n-1) {
		t.Fatalf("conjugate element = %d", k)
	}
	// Rotation by slots (n/2) is the identity.
	if k := GaloisElementForRotation(n, n/2); k != 1 {
		t.Fatalf("full rotation element = %d, want 1", k)
	}
	// Negative rotations wrap.
	if GaloisElementForRotation(n, -1) != GaloisElementForRotation(n, n/2-1) {
		t.Fatal("negative rotation did not wrap")
	}
}

func TestSamplerDistributions(t *testing.T) {
	r := testRing(t, 1024, 1)
	s := NewSampler(r, 9)
	p := r.NewPoly(0)

	s.Ternary(p)
	q := r.Moduli[0]
	counts := map[uint64]int{}
	for _, c := range p.Coeffs[0] {
		counts[c]++
		if c != 0 && c != 1 && c != q-1 {
			t.Fatalf("ternary coefficient %d out of range", c)
		}
	}
	for _, v := range []uint64{0, 1, q - 1} {
		if counts[v] < r.N/6 {
			t.Fatalf("ternary value %d badly underrepresented: %d", v, counts[v])
		}
	}

	s.Gaussian(p, 3.2)
	for _, c := range p.Coeffs[0] {
		mag := c
		if c > q/2 {
			mag = q - c
		}
		if mag > 20 {
			t.Fatalf("gaussian coefficient magnitude %d too large", mag)
		}
	}
}

func TestSamplerDeterminism(t *testing.T) {
	r := testRing(t, 64, 2)
	p1, p2 := r.NewPoly(1), r.NewPoly(1)
	NewSampler(r, 42).Uniform(p1)
	NewSampler(r, 42).Uniform(p2)
	if !p1.Equal(p2) {
		t.Fatal("same seed produced different polynomials")
	}
}

func TestUniformRejectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := testRing(t, 8, 1)
		s := NewSampler(r, seed)
		p := r.NewPoly(0)
		s.Uniform(p)
		for _, c := range p.Coeffs[0] {
			if c >= r.Moduli[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
