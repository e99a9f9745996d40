package ckks

import (
	"fmt"
	"math/big"
	"testing"

	"hydra/internal/ring"
)

// noiseBits returns the bit length of the largest centered coefficient of
// got − want (NTT domain, same level): the noise one operation added to the
// decryption phase, measured in the ring and so independent of any scale.
func noiseBits(r *ring.Ring, got, want *ring.Poly) int {
	d := r.NewPoly(got.Level())
	r.Sub(got, want, d)
	r.INTT(d)
	coeffs := make([]*big.Int, r.N)
	r.ToBigInt(d, coeffs)
	q := r.ModulusProduct(d.Level())
	half := new(big.Int).Rsh(q, 1)
	bits := 0
	for _, c := range coeffs {
		if c.Cmp(half) > 0 {
			c.Sub(c, q)
		}
		bits = max(bits, c.BitLen())
	}
	return bits
}

// ksNoiseBudget bounds the noise any keyswitch may add at any level, in bits:
// thirty under the 2^45 scale of TestParameters.
const ksNoiseBudget = 15

// TestKeySwitchNoiseTable measures the noise every keyswitch entry point adds
// to the decryption phase, over chains that exercise each shape of the digit
// decomposition — one limb (one special prime, the degenerate case), two and
// five (a partial last digit), three, seventeen — at every level, down to a
// single active digit. Each must stay inside ksNoiseBudget and within one bit
// of the figure recorded from the parent.
func TestKeySwitchNoiseTable(t *testing.T) {
	// The keyswitch noise of the one-digit-per-limb keyswitch this one
	// replaced, recorded with this test at the parent commit: the worst bit
	// length over every level of the chain, per operation.
	parent := map[int]map[string]int{
		1:  {"Rotate": 6, "RotateHoisted": 6, "RotateHoistedExt": 6, "MulRelin": 6},
		2:  {"Rotate": 6, "RotateHoisted": 6, "RotateHoistedExt": 6, "MulRelin": 7},
		3:  {"Rotate": 6, "RotateHoisted": 6, "RotateHoistedExt": 6, "MulRelin": 6},
		5:  {"Rotate": 7, "RotateHoisted": 7, "RotateHoistedExt": 7, "MulRelin": 6},
		17: {"Rotate": 6, "RotateHoisted": 6, "RotateHoistedExt": 6, "MulRelin": 7},
	}
	rots := []int{1, 3}
	for _, limbs := range []int{1, 2, 3, 5, 17} {
		t.Run(fmt.Sprintf("limbs=%d", limbs), func(t *testing.T) {
			tc := newTestContext(t, 7, limbs-1, rots)
			r := tc.params.RingQP()
			worst := map[string]int{}
			note := func(op string, lvl int, got, want *ring.Poly) {
				bits := noiseBits(r, got, want)
				if bits > ksNoiseBudget {
					t.Errorf("%s at level %d adds %d bits of noise, budget %d", op, lvl, bits, ksNoiseBudget)
				}
				worst[op] = max(worst[op], bits)
			}
			for lvl := 0; lvl < limbs; lvl++ {
				pt, err := tc.enc.EncodeAtLevel(randomComplex(tc.params.Slots(), int64(lvl)), tc.params.DefaultScale(), lvl)
				if err != nil {
					t.Fatal(err)
				}
				ct := tc.encr.Encrypt(pt)
				phase := tc.decr.Decrypt(ct).Value

				hoisted := tc.eval.RotateHoisted(ct, rots)
				ext := tc.eval.RotateHoistedExt(ct, rots)
				for _, rot := range rots {
					want := r.NewPoly(lvl)
					r.AutomorphismNTT(phase, ring.AutomorphismNTTIndex(r.N, ring.GaloisElementForRotation(r.N, rot)), want)
					note("Rotate", lvl, tc.decr.Decrypt(tc.eval.Rotate(ct, rot)).Value, want)
					note("RotateHoisted", lvl, tc.decr.Decrypt(hoisted[rot]).Value, want)
					note("RotateHoistedExt", lvl, tc.decr.Decrypt(tc.eval.ModDownExt(ext[rot])).Value, want)
				}

				// c0 + c1·s + c2·s² of the tensor product, which MulRelin's
				// keyswitch folds back to degree one.
				d := tc.eval.MulNoRelin(ct, ct)
				s := atLevel(tc.sk.Value, lvl)
				want, tmp := r.NewPoly(lvl), r.NewPoly(lvl)
				r.MulCoeffs(d.C2, s, want)
				r.Add(want, d.C1, want)
				r.MulCoeffs(want, s, tmp)
				r.Add(tmp, d.C0, want)
				note("MulRelin", lvl, tc.decr.Decrypt(tc.eval.MulRelin(ct, ct)).Value, want)
			}
			for op, bits := range worst {
				if was := parent[limbs][op]; bits > was+1 {
					t.Errorf("%s: %d bits of keyswitch noise, parent %d", op, bits, was)
				}
			}
			t.Logf("worst keyswitch noise over %d levels, bits: %v", limbs, worst)
		})
	}
}
