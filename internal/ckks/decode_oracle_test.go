package ckks

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"hydra/internal/ring"
)

// decodeOracle is the math/big decoder the word path replaced, kept whole as
// the reference: a fresh copy of the plaintext, its inverse NTT, every
// coefficient rebuilt by the CRT as a big.Int, centred, and divided by the
// scale as a big.Float. It shares only the NTT, ToBigInt and the special FFT
// with the production path.
func decodeOracle(e *Encoder, pt *Plaintext) []complex128 {
	r := e.params.RingQP()
	poly := pt.Value.CopyNew()
	if poly.IsNTT {
		r.INTT(poly)
	}
	n := e.params.N()
	coeffs := make([]*big.Int, n)
	r.ToBigInt(poly, coeffs)
	q := r.ModulusProduct(poly.Level())
	half := new(big.Int).Rsh(q, 1)
	scale := new(big.Float).SetFloat64(pt.Scale)
	centred := func(v *big.Int) float64 {
		c := new(big.Int).Set(v)
		if c.Cmp(half) > 0 {
			c.Sub(c, q)
		}
		f := new(big.Float).SetInt(c)
		f.Quo(f, scale)
		out, _ := f.Float64()
		return out
	}
	slots := e.params.Slots()
	nh := n / 2
	gap := nh / slots
	buf := make([]complex128, slots)
	for j := range buf {
		buf[j] = complex(centred(coeffs[j*gap]), centred(coeffs[nh+j*gap]))
	}
	e.fftSpecial(buf)
	return buf
}

// checkDecodeAgainstOracle decodes pt on both paths and compares every slot
// bit for bit.
func checkDecodeAgainstOracle(t *testing.T, enc *Encoder, pt *Plaintext, what string) {
	t.Helper()
	got, want := enc.Decode(pt), decodeOracle(enc, pt)
	for j := range want {
		if math.Float64bits(real(got[j])) != math.Float64bits(real(want[j])) || math.Float64bits(imag(got[j])) != math.Float64bits(imag(want[j])) {
			t.Fatalf("%s: slot %d decodes to %v, the math/big oracle %v", what, j, got[j], want[j])
		}
	}
}

// coeffPlaintext is a level-lvl plaintext whose coefficients are the given
// integers (reduced mod Q) at the slot-carrying positions, zero elsewhere,
// transformed to the NTT domain when ntt is set.
func coeffPlaintext(params *Parameters, lvl int, vals []*big.Int, scale float64, ntt bool) *Plaintext {
	r := params.RingQP()
	poly := r.NewPoly(lvl)
	nh := params.N() / 2
	gap := nh / params.Slots()
	tmp := new(big.Int)
	for k, v := range vals {
		idx := (k/2)*gap + (k%2)*nh
		for i, row := range poly.Coeffs {
			row[idx] = tmp.Mod(v, new(big.Int).SetUint64(r.Moduli[i])).Uint64()
		}
	}
	if ntt {
		r.NTT(poly)
	}
	return &Plaintext{Value: poly, Scale: scale}
}

// TestDecodeMatchesBigOracle holds Decode to the math/big oracle at every
// level of TestParameters(10, 4), dense and sparse: encoded and encrypted
// messages at the default scale 2^45 and at Δ²/q_i (a product's scale after
// its rescale), and coefficients placed at and beyond ±q_0/2, up to ±Q/2,
// where residue 0 no longer determines the coefficient and the math/big
// fallback decodes it. Scales near the float64 range's ends send the
// quotient out of the normal range, the other fallback.
func TestDecodeMatchesBigOracle(t *testing.T) {
	tc := newTestContext(t, 10, 4, nil)
	for _, logSlots := range []int{9, 4} {
		params := sparseTestParameters(t, 10, 4, logSlots)
		enc := NewEncoder(params)
		r := params.RingQP()
		delta := params.DefaultScale()
		rng := rand.New(rand.NewSource(int64(logSlots)))
		for lvl := 0; lvl <= params.MaxLevel(); lvl++ {
			scales := []float64{delta, 0.7 * delta}
			for i := 1; i <= lvl; i++ {
				scales = append(scales, delta*delta/float64(r.Moduli[i]))
			}
			for _, scale := range scales {
				for _, amp := range []float64{1, 0x1p5, 0x1p10} { // 2^10·2^45 passes q_0/2 = 2^49
					pt, err := enc.EncodeAtLevel(encodeCorpus(params.Slots(), rng.Int63(), amp), scale, lvl)
					if err != nil {
						t.Fatal(err)
					}
					checkDecodeAgainstOracle(t, enc, pt, "encoded")
				}
			}
			if logSlots == 9 { // the test context's keys are dense
				pt, _ := tc.enc.EncodeAtLevel(randomComplex(params.Slots(), int64(lvl)), delta, lvl)
				checkDecodeAgainstOracle(t, tc.enc, tc.decr.Decrypt(tc.encr.Encrypt(pt)), "decrypted")
			}

			q := r.ModulusProduct(lvl)
			half := new(big.Int).Rsh(q, 1)
			q0 := new(big.Int).SetUint64(r.Moduli[0])
			h0 := new(big.Int).Rsh(q0, 1)
			var vals []*big.Int
			for _, base := range []*big.Int{big.NewInt(0), h0, q0, half} {
				for d := int64(-2); d <= 2; d++ {
					v := new(big.Int).Add(base, big.NewInt(d))
					vals = append(vals, v, new(big.Int).Neg(v))
				}
			}
			for len(vals) < 2*params.Slots() {
				vals = append(vals, new(big.Int).Sub(new(big.Int).Rand(rng, q), half))
			}
			for _, scale := range append(scales, 0x1p-1060, 0x1p1000, 0x1p1023, math.MaxFloat64) {
				for _, ntt := range []bool{true, false} {
					checkDecodeAgainstOracle(t, enc, coeffPlaintext(params, lvl, vals[:2*params.Slots()], scale, ntt), "placed")
				}
			}
		}
	}
}

// TestDecodeFallbackIsPerCoefficient: residue 0 decides a coefficient below
// q_0/2, and math/big is reached only at one that is not, at any level.
func TestDecodeFallbackIsPerCoefficient(t *testing.T) {
	params := TestParameters(10, 4)
	r := params.RingQP()
	q0 := int64(r.Moduli[0])
	nh := params.N() / 2
	for lvl := 1; lvl <= params.MaxLevel(); lvl++ {
		// Coefficients 0 and N/2 carry the two values, the rest are zero.
		pt := coeffPlaintext(params, lvl, []*big.Int{big.NewInt(-(q0/2 - 1)), big.NewInt(q0/2 + 1)}, params.DefaultScale(), false)
		d := newCoeffDecoder(r, pt.Value, pt.Scale)
		d.coeff(0)
		d.coeff(1)
		if d.big != nil {
			t.Fatalf("level %d: a coefficient below q_0/2 reached math/big", lvl)
		}
		if d.coeff(nh); d.big == nil {
			t.Fatalf("level %d: a coefficient above q_0/2 was decoded from residue 0", lvl)
		}
	}
}

// FuzzDecode is the differential fuzzer of Decode against the math/big
// oracle on random residues: each coefficient either a uniform residue
// vector (a coefficient anywhere in [0, Q), refused by residue 0 above level
// 0) or a signed integer below 2^bits, at any level of TestParameters(10, 4),
// dense or sparse, in either domain, at any positive finite scale.
func FuzzDecode(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(9), uint8(40), uint8(0), math.Ldexp(1, 45), true)
	f.Add(int64(2), uint8(2), uint8(3), uint8(50), uint8(128), math.Ldexp(1, 90)/float64(1<<45+1), true)
	f.Add(int64(3), uint8(0), uint8(9), uint8(62), uint8(255), 3.3e13, false)
	f.Add(int64(4), uint8(3), uint8(0), uint8(10), uint8(30), 0x1p-1074, true)
	f.Add(int64(5), uint8(1), uint8(5), uint8(49), uint8(0), 0x1p1020, false)
	encs := map[int]*Encoder{}
	f.Fuzz(func(t *testing.T, seed int64, level, logSlots, bits, wideShare uint8, scale float64, ntt bool) {
		if !(scale > 0) || math.IsInf(scale, 0) {
			return // no plaintext has such a scale, and NaN panics the oracle
		}
		ls := 1 + int(logSlots)%9
		enc, ok := encs[ls]
		if !ok {
			enc = NewEncoder(sparseTestParameters(t, 10, 4, ls))
			encs[ls] = enc
		}
		params := enc.params
		r := params.RingQP()
		lvl := int(level) % (params.MaxLevel() + 1)
		rng := rand.New(rand.NewSource(seed))
		poly := r.NewPoly(lvl)
		for j := 0; j < params.N(); j++ {
			if rng.Intn(256) < int(wideShare) {
				for i, row := range poly.Coeffs {
					row[j] = rng.Uint64() % r.Moduli[i]
				}
				continue
			}
			v, neg := uint64(rng.Int63n(1<<(1+int(bits)%62))), rng.Intn(2) == 0
			for i, row := range poly.Coeffs {
				if row[j] = v % r.Moduli[i]; neg {
					row[j] = ring.NegMod(row[j], r.Moduli[i])
				}
			}
		}
		if ntt {
			r.NTT(poly)
		}
		checkDecodeAgainstOracle(t, enc, &Plaintext{Value: poly, Scale: scale}, "fuzzed")
	})
}

// TestDecodeAllocationShape: a decode allocates the slot vector it returns
// and a handful of headers — the inverse NTT runs on pooled rows and no
// coefficient allocates — so the count is the same at N = 2^10 and 2^12 and
// the bytes stay within a few KB of the slot vector.
func TestDecodeAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	ring.SetSerial(true) // no goroutine bookkeeping in the count
	defer ring.SetSerial(false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool cache
	for _, logN := range []int{10, 12} {
		params := TestParameters(logN, 4)
		enc := NewEncoder(params)
		pt, err := enc.EncodeAtLevel(randomComplex(params.Slots(), 1), params.DefaultScale(), 3)
		if err != nil {
			t.Fatal(err)
		}
		enc.Decode(pt) // fill the pool
		// The slot vector, the pooled polynomial and the inverse NTT's limb
		// closure; its header is the pool's.
		if allocs := testing.AllocsPerRun(50, func() { enc.Decode(pt) }); allocs != 3 && !poisonPool {
			t.Errorf("N=2^%d: Decode makes %.0f allocations, want 3", logN, allocs)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC() // a fresh heap goal: no collection empties the pools mid-count
		runtime.ReadMemStats(&before)
		for range runs {
			enc.Decode(pt)
		}
		runtime.ReadMemStats(&after)
		perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
		if out := uint64(params.Slots() * 16); perDecode > out+1<<10 {
			t.Errorf("N=2^%d: Decode allocates %d B per call, want at most its %d B of slots and 1 KB", logN, perDecode, out)
		}
	}
}

// TestRotationAllocationShape: a rotation builds no index table (32 KiB at
// N = 2^12) — the gathers step through the automorphism — so Rotate, and
// RotateHoisted over four rotations, allocate fewer than N·8 bytes per call
// beyond their result rows, which return to the pool between calls here.
func TestRotationAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	ring.SetSerial(true)
	defer ring.SetSerial(false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rots := []int{1, 2, 3, -1}
	tc := newTestContext(t, 12, 4, rots)
	pt, _ := encodeMax(tc.enc, randomComplex(tc.params.Slots(), 3))
	ct := tc.encr.Encrypt(pt)
	for name, op := range map[string]func(){
		"Rotate": func() { tc.eval.Release(tc.eval.Rotate(ct, 1)) },
		"RotateHoisted": func() {
			for _, res := range tc.eval.RotateHoisted(ct, rots) {
				tc.eval.Release(res)
			}
		},
	} {
		op() // fill the pools
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC() // a fresh heap goal: no collection empties the pools mid-count
		runtime.ReadMemStats(&before)
		for range runs {
			op()
		}
		runtime.ReadMemStats(&after)
		if per, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(tc.params.N()*8); per >= limit {
			t.Errorf("%s allocates %d B per call beyond its result rows, want under N·8 = %d", name, per, limit)
		}
	}
}
