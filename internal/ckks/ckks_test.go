package ckks

import (
	"math"
	"math/cmplx"
	"testing"

	"hydra/internal/hw"
	"hydra/internal/ring"
)

type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	encr   *Encryptor
	decr   *Decryptor
	eval   *Evaluator
}

func newTestContext(t testing.TB, logN, levels int, rotations []int) *testContext {
	t.Helper()
	params := TestParameters(logN, levels)
	kg := NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, rotations, true)
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		encr:   NewEncryptor(params, pk, 2),
		decr:   NewDecryptor(params, sk),
		eval:   NewEvaluator(params, rlk, rtks),
	}
}

// encodeMax encodes at the maximum ciphertext level with the default scale.
func encodeMax(e *Encoder, values []complex128) (*Plaintext, error) {
	return e.EncodeAtLevel(values, e.params.DefaultScale(), e.params.MaxLevel())
}

func randomComplex(n int, seed int64) []complex128 {
	vals := make([]complex128, n)
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11)/float64(1<<53)*2 - 1
	}
	for i := range vals {
		vals[i] = complex(next(), next())
	}
	return vals
}

func maxErr(got, want []complex128) float64 {
	m := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	params := TestParameters(10, 2)
	enc := NewEncoder(params)
	vals := randomComplex(params.Slots(), 7)
	pt, err := encodeMax(enc, vals)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(pt)
	if e := maxErr(got, vals); e > 1e-8 {
		t.Fatalf("encode/decode error %g too large", e)
	}
}

func TestEncodeRejectsTooManyValues(t *testing.T) {
	params := TestParameters(6, 1)
	enc := NewEncoder(params)
	if _, err := encodeMax(enc, make([]complex128, params.Slots()+1)); err == nil {
		t.Fatal("expected error for too many values")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, 10, 2, nil)
	vals := randomComplex(tc.params.Slots(), 8)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	got := tc.enc.Decode(tc.decr.Decrypt(ct))
	if e := maxErr(got, vals); e > 1e-6 {
		t.Fatalf("encrypt/decrypt error %g too large", e)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	tc := newTestContext(t, 10, 2, nil)
	a := randomComplex(tc.params.Slots(), 9)
	b := randomComplex(tc.params.Slots(), 10)
	pa, _ := encodeMax(tc.enc, a)
	pb, _ := encodeMax(tc.enc, b)
	ca := tc.encr.Encrypt(pa)
	cb := tc.encr.Encrypt(pb)

	sum := tc.eval.Add(ca, cb)
	diff := tc.eval.Sub(ca, cb)
	wantSum := make([]complex128, len(a))
	wantDiff := make([]complex128, len(a))
	for i := range a {
		wantSum[i] = a[i] + b[i]
		wantDiff[i] = a[i] - b[i]
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(sum)), wantSum); e > 1e-6 {
		t.Fatalf("add error %g", e)
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(diff)), wantDiff); e > 1e-6 {
		t.Fatalf("sub error %g", e)
	}
}

func TestAddConst(t *testing.T) {
	tc := newTestContext(t, 10, 2, nil)
	a := randomComplex(tc.params.Slots(), 11)
	pa, _ := encodeMax(tc.enc, a)
	ct := tc.encr.Encrypt(pa)
	want := make([]complex128, len(a))

	shifted := tc.eval.AddConst(ct, 0.5)
	for i := range a {
		want[i] = a[i] + 0.5
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(shifted)), want); e > 1e-6 {
		t.Fatalf("AddConst error %g", e)
	}
	neg := tc.eval.AddConst(ct, -0.25)
	for i := range a {
		want[i] = a[i] - 0.25
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(neg)), want); e > 1e-6 {
		t.Fatalf("AddConst negative error %g", e)
	}
}

func TestMulPlainRescale(t *testing.T) {
	tc := newTestContext(t, 10, 3, nil)
	a := randomComplex(tc.params.Slots(), 13)
	b := randomComplex(tc.params.Slots(), 14)
	pa, _ := encodeMax(tc.enc, a)
	pb, _ := encodeMax(tc.enc, b)
	ct := tc.encr.Encrypt(pa)

	prod := tc.eval.MulPlain(ct, pb)
	prod = tc.eval.Rescale(prod)
	if prod.Level() != tc.params.MaxLevel()-1 {
		t.Fatalf("level after rescale = %d", prod.Level())
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] * b[i]
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(prod)), want); e > 1e-4 {
		t.Fatalf("MulPlain error %g", e)
	}
}

func TestMulByConst(t *testing.T) {
	tc := newTestContext(t, 10, 3, nil)
	a := randomComplex(tc.params.Slots(), 15)
	pa, _ := encodeMax(tc.enc, a)
	ct := tc.encr.Encrypt(pa)
	out := tc.eval.Rescale(tc.eval.MulByConst(ct, -1.5))
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] * -1.5
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(out)), want); e > 1e-4 {
		t.Fatalf("MulByConst error %g", e)
	}
}

func TestMulRelinRescale(t *testing.T) {
	tc := newTestContext(t, 11, 3, nil)
	a := randomComplex(tc.params.Slots(), 16)
	b := randomComplex(tc.params.Slots(), 17)
	pa, _ := encodeMax(tc.enc, a)
	pb, _ := encodeMax(tc.enc, b)
	ca := tc.encr.Encrypt(pa)
	cb := tc.encr.Encrypt(pb)

	prod := tc.eval.Rescale(tc.eval.MulRelin(ca, cb))
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] * b[i]
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(prod)), want); e > 1e-3 {
		t.Fatalf("MulRelin error %g", e)
	}
}

func TestMulDepthTwo(t *testing.T) {
	tc := newTestContext(t, 11, 4, nil)
	a := randomComplex(tc.params.Slots(), 18)
	pa, _ := encodeMax(tc.enc, a)
	ct := tc.encr.Encrypt(pa)

	sq := tc.eval.Rescale(tc.eval.MulRelin(ct, ct))
	quad := tc.eval.Rescale(tc.eval.MulRelin(sq, sq))
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] * a[i] * a[i] * a[i]
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(quad)), want); e > 1e-2 {
		t.Fatalf("depth-2 error %g", e)
	}
}

func TestRotate(t *testing.T) {
	tc := newTestContext(t, 10, 2, []int{1, 3, -2})
	slots := tc.params.Slots()
	vals := make([]complex128, slots)
	for i := range vals {
		vals[i] = complex(float64(i), 0)
	}
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)

	for _, rot := range []int{1, 3, -2} {
		got := tc.enc.Decode(tc.decr.Decrypt(tc.eval.Rotate(ct, rot)))
		want := make([]complex128, slots)
		for j := range want {
			want[j] = vals[((j+rot)%slots+slots)%slots]
		}
		if e := maxErr(got, want); e > 1e-5 {
			t.Fatalf("rotation by %d: error %g (got[0]=%v want[0]=%v)", rot, e, got[0], want[0])
		}
	}
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t, 10, 2, nil)
	vals := randomComplex(tc.params.Slots(), 19)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	got := tc.enc.Decode(tc.decr.Decrypt(tc.eval.Conjugate(ct)))
	want := make([]complex128, len(vals))
	for i := range vals {
		want[i] = cmplx.Conj(vals[i])
	}
	if e := maxErr(got, want); e > 1e-5 {
		t.Fatalf("conjugate error %g", e)
	}
}

func TestRotateZeroIsIdentity(t *testing.T) {
	tc := newTestContext(t, 9, 2, []int{1})
	vals := randomComplex(tc.params.Slots(), 20)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	got := tc.enc.Decode(tc.decr.Decrypt(tc.eval.Rotate(ct, 0)))
	if e := maxErr(got, vals); e > 1e-6 {
		t.Fatalf("rotate-0 error %g", e)
	}
}

func TestParameterValidation(t *testing.T) {
	cases := []ParametersLiteral{
		{LogN: 2, LogQ: []int{45}, LogP: 45},
		{LogN: 10, LogQ: nil, LogP: 45},
		{LogN: 10, LogQ: []int{45}},
		{LogN: 10, LogSlots: 10, LogQ: []int{45}, LogP: 45},
		// Modulus sizes outside the word-sized prime range used to panic in
		// the prime search.
		{LogN: 10, LogQ: []int{50, 70}, LogP: 50},
		{LogN: 10, LogQ: []int{45}, LogP: 62},
		{LogN: 10, LogQ: []int{3}, LogP: 45},
		// P must cover a digit: a special prime narrower than a chain prime.
		{LogN: 10, LogQ: []int{50, 45}, LogP: 45},
	}
	for i, lit := range cases {
		if _, err := NewParameters(lit); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	p, err := NewParameters(ParametersLiteral{LogN: 10, LogQ: []int{50, 45, 45}, LogP: 50})
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxLevel() != 2 || p.Slots() != 512 || p.N() != 1024 {
		t.Fatalf("unexpected derived parameters: %+v", p)
	}
	if p.DefaultScale() != math.Pow(2, 40) {
		t.Fatalf("default scale = %g", p.DefaultScale())
	}
}

// TestSwitchingKeyDigitCount: a chain of L+1 limbs draws α = ⌈(L+1)/3⌉
// special primes and its switching keys hold ⌈(L+1)/α⌉ digits over all
// L+1+α rows — the paper's dnum, which the cost model prices, from three
// limbs up (but for four, which two digits of two cover).
func TestSwitchingKeyDigitCount(t *testing.T) {
	for _, limbs := range []int{1, 2, 3, 4, 5, 17, 18} {
		params := TestParameters(5, limbs-1)
		alpha := len(params.RingQP().Moduli) - limbs
		if alpha != (limbs+2)/3 || params.ExtRows(limbs-1) != limbs+alpha || params.SpecialIndex() != limbs {
			t.Fatalf("%d limbs: %d special primes, %d extended rows", limbs, alpha, params.ExtRows(limbs-1))
		}
		kg := NewKeyGenerator(params, 1)
		swk := kg.GenRelinearizationKey(kg.GenSecretKey()).Key
		if want := (limbs + alpha - 1) / alpha; len(swk.DigitsB) != want || len(swk.DigitsA) != want {
			t.Fatalf("%d limbs, α=%d: %d+%d digits, want %d", limbs, alpha, len(swk.DigitsB), len(swk.DigitsA), want)
		}
		if limbs >= 3 && limbs != 4 && len(swk.DigitsB) != hw.HydraCard().KeySwitchDnum {
			t.Fatalf("%d limbs: %d digits, the cost model prices %d", limbs, len(swk.DigitsB), hw.HydraCard().KeySwitchDnum)
		}
		for d := range swk.DigitsB {
			if len(swk.DigitsB[d].Coeffs) != limbs+alpha || len(swk.DigitsA[d].Coeffs) != limbs+alpha {
				t.Fatalf("%d limbs: digit %d has %d rows, want %d", limbs, d, len(swk.DigitsB[d].Coeffs), limbs+alpha)
			}
		}
	}
}

// TestEncryptSamplesOnlyItsLevel pins Encrypt, which samples and transforms
// the plaintext level's rows only, against the full-chain sample sliced to
// the level: the sampler draws one value per coefficient, so the two are the
// same ciphertext bit for bit.
func TestEncryptSamplesOnlyItsLevel(t *testing.T) {
	tc := newTestContext(t, 6, 4, nil)
	r := tc.params.RingQP()
	for lvl := 0; lvl <= tc.params.MaxLevel(); lvl++ {
		pt, err := tc.enc.EncodeAtLevel(randomComplex(tc.params.Slots(), int64(30+lvl)), tc.params.DefaultScale(), lvl)
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(40 + lvl)
		got := NewEncryptor(tc.params, tc.pk, seed).Encrypt(pt)

		smp := ring.NewSampler(r, seed)
		v, e0, e1 := r.NewPoly(r.MaxLevel()), r.NewPoly(r.MaxLevel()), r.NewPoly(r.MaxLevel())
		smp.Ternary(v)
		smp.Gaussian(e0, tc.params.Sigma())
		smp.Gaussian(e1, tc.params.Sigma())
		for _, p := range []*ring.Poly{v, e0, e1} {
			r.NTT(p)
		}
		want := &Ciphertext{C0: r.NewPoly(lvl), C1: r.NewPoly(lvl), Scale: pt.Scale}
		r.MulCoeffs(atLevel(v, lvl), atLevel(tc.pk.B, lvl), want.C0)
		r.Add(want.C0, atLevel(e0, lvl), want.C0)
		r.Add(want.C0, pt.Value, want.C0)
		r.MulCoeffs(atLevel(v, lvl), atLevel(tc.pk.A, lvl), want.C1)
		r.Add(want.C1, atLevel(e1, lvl), want.C1)
		if !got.Equal(want) {
			t.Fatalf("level %d: Encrypt differs from the full-chain sample sliced to the level", lvl)
		}
	}
}

func TestScaleMismatchPanics(t *testing.T) {
	tc := newTestContext(t, 9, 2, nil)
	vals := randomComplex(tc.params.Slots(), 21)
	pt1, _ := tc.enc.EncodeAtLevel(vals, 1<<40, tc.params.MaxLevel())
	pt2, _ := tc.enc.EncodeAtLevel(vals, 1<<41, tc.params.MaxLevel())
	c1 := tc.encr.Encrypt(pt1)
	c2 := tc.encr.Encrypt(pt2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scale mismatch")
		}
	}()
	tc.eval.Add(c1, c2)
}

func TestLevelAlignment(t *testing.T) {
	tc := newTestContext(t, 10, 3, nil)
	a := randomComplex(tc.params.Slots(), 22)
	pa, _ := encodeMax(tc.enc, a)
	ca := tc.encr.Encrypt(pa)
	cb := ca.CopyNew()
	cb.DropLevel(1)
	sum := tc.eval.Add(ca, cb)
	if sum.Level() != ca.Level()-1 {
		t.Fatalf("sum level = %d", sum.Level())
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = 2 * a[i]
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(sum)), want); e > 1e-6 {
		t.Fatalf("aligned add error %g", e)
	}
}

func TestRotateHoistedMatchesRotate(t *testing.T) {
	tc := newTestContext(t, 10, 3, []int{1, 2, 5, 7})
	vals := randomComplex(tc.params.Slots(), 23)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	rots := []int{0, 1, 2, 5, 7}
	hoisted := tc.eval.RotateHoisted(ct, rots)
	slots := tc.params.Slots()
	for _, rot := range rots {
		h := hoisted[rot]
		if h == nil {
			t.Fatalf("missing hoisted rotation %d", rot)
		}
		// Hoisting uses a different (equally valid) digit lift than the
		// direct path, so compare decrypted values, not bits.
		got := tc.enc.Decode(tc.decr.Decrypt(h))
		want := make([]complex128, slots)
		for j := range want {
			want[j] = vals[(j+rot)%slots]
		}
		if e := maxErr(got, want); e > 1e-5 {
			t.Fatalf("hoisted rotation %d: error %g", rot, e)
		}
		direct := tc.enc.Decode(tc.decr.Decrypt(tc.eval.Rotate(ct, rot)))
		if e := maxErr(got, direct); e > 1e-7 {
			t.Fatalf("hoisted rotation %d diverges from direct by %g", rot, e)
		}
	}
}

func TestRotateHoistedDuplicatesAndIdentity(t *testing.T) {
	tc := newTestContext(t, 9, 2, []int{3})
	vals := randomComplex(tc.params.Slots(), 24)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	out := tc.eval.RotateHoisted(ct, []int{3, 3, 0})
	if len(out) != 2 {
		t.Fatalf("expected 2 distinct results, got %d", len(out))
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out[0]))
	if e := maxErr(got, vals); e > 1e-6 {
		t.Fatalf("identity rotation error %g", e)
	}
}
