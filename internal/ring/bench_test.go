package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchNTT(b *testing.B, n int, kernel func(*NTTTable, *nttOracle, []uint64)) {
	tbl, oracle := newTableAndOracle(n, 55)
	rng := rand.New(rand.NewSource(1))
	a := randomCoeffs(rng, n, tbl.Mod.Q)
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(tbl, oracle, a)
	}
}

func fwdMerged(t *NTTTable, _ *nttOracle, a []uint64) { t.Forward(a) }
func fwdRadix2(_ *NTTTable, o *nttOracle, a []uint64) { o.Forward(a) }
func invMerged(t *NTTTable, _ *nttOracle, a []uint64) { t.Inverse(a) }
func invRadix2(_ *NTTTable, o *nttOracle, a []uint64) { o.Inverse(a) }

// The NTT-kernel ablation behind Hydra's choice of a radix-4 datapath
// (Section IV-B): the five-pass radix-2 test oracle against the merged-twist
// lazy radix-4 default (the generated specialization at these degrees). The
// 2^12..2^16 ladder spans the paper's parameter sets.
func BenchmarkNTTRadix2_4096(b *testing.B)   { benchNTT(b, 4096, fwdRadix2) }
func BenchmarkNTTMerged_4096(b *testing.B)   { benchNTT(b, 4096, fwdMerged) }
func BenchmarkNTTRadix2_8192(b *testing.B)   { benchNTT(b, 8192, fwdRadix2) }
func BenchmarkNTTMerged_8192(b *testing.B)   { benchNTT(b, 8192, fwdMerged) }
func BenchmarkNTTRadix2_16384(b *testing.B)  { benchNTT(b, 16384, fwdRadix2) }
func BenchmarkNTTMerged_16384(b *testing.B)  { benchNTT(b, 16384, fwdMerged) }
func BenchmarkNTTRadix2_32768(b *testing.B)  { benchNTT(b, 32768, fwdRadix2) }
func BenchmarkNTTMerged_32768(b *testing.B)  { benchNTT(b, 32768, fwdMerged) }
func BenchmarkNTTRadix2_65536(b *testing.B)  { benchNTT(b, 65536, fwdRadix2) }
func BenchmarkNTTMerged_65536(b *testing.B)  { benchNTT(b, 65536, fwdMerged) }
func BenchmarkINTT_4096(b *testing.B)        { benchNTT(b, 4096, invMerged) }
func BenchmarkINTTRadix2_8192(b *testing.B)  { benchNTT(b, 8192, invRadix2) }
func BenchmarkINTTMerged_8192(b *testing.B)  { benchNTT(b, 8192, invMerged) }
func BenchmarkINTTRadix2_16384(b *testing.B) { benchNTT(b, 16384, invRadix2) }
func BenchmarkINTTMerged_16384(b *testing.B) { benchNTT(b, 16384, invMerged) }
func BenchmarkINTTRadix2_32768(b *testing.B) { benchNTT(b, 32768, invRadix2) }
func BenchmarkINTTMerged_32768(b *testing.B) { benchNTT(b, 32768, invMerged) }
func BenchmarkINTTRadix2_65536(b *testing.B) { benchNTT(b, 65536, invRadix2) }
func BenchmarkINTTMerged_65536(b *testing.B) { benchNTT(b, 65536, invMerged) }

// BenchmarkMulCoeffsAddFused vs the two-pass spelling it replaces: the fused
// pointwise MAC kernel used by the keyswitch inner product and BSGS
// accumulation.
func BenchmarkMulCoeffsAddFused(b *testing.B) {
	r := testRing(b, 4096, 3)
	s := NewSampler(r, 7)
	x, y, acc := r.NewPoly(2), r.NewPoly(2), r.NewPoly(2)
	s.Uniform(x)
	s.Uniform(y)
	x.IsNTT, y.IsNTT, acc.IsNTT = true, true, true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MulCoeffsAdd(x, y, acc)
	}
}

func BenchmarkMulCoeffsAddTwoPass(b *testing.B) {
	r := testRing(b, 4096, 3)
	s := NewSampler(r, 7)
	x, y, acc, tmp := r.NewPoly(2), r.NewPoly(2), r.NewPoly(2), r.NewPoly(2)
	s.Uniform(x)
	s.Uniform(y)
	x.IsNTT, y.IsNTT, acc.IsNTT = true, true, true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MulCoeffs(x, y, tmp)
		r.Add(acc, tmp, acc)
	}
}

func BenchmarkMulModBarrett(b *testing.B) {
	m := NewModulus(testQ)
	x, y := uint64(0x123456789abcd), uint64(0xfedcba987)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= m.MulModBarrett(x^acc, y)
	}
	_ = acc
}

func BenchmarkMulModShoup(b *testing.B) {
	w := uint64(0xfedcba987) % testQ
	ws := ShoupPrecomp(w, testQ)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc = MulModShoup(acc^0x123456789abcd, w, ws, testQ)
	}
	_ = acc
}

func BenchmarkAutomorphismNTT(b *testing.B) {
	r := testRing(b, 4096, 3)
	s := NewSampler(r, 3)
	p := r.NewPoly(2)
	s.Uniform(p)
	r.NTT(p)
	out := r.NewPoly(2)
	perm := AutomorphismNTTIndex(r.N, GaloisElementForRotation(r.N, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AutomorphismNTT(p, perm, out)
	}
}

// perProductRowMAC is the per-product-Barrett row MAC the wide-accumulator
// kernels replaced: acc[j] += a[perm[j]]·b[j] (a[j] when perm is nil) with
// one Reduce128Lazy per product and the gather read from a table, acc lazy in
// [0, 2q).
func perProductRowMAC(m Modulus, acc, a, b []uint64, perm []int) {
	for j := range acc {
		src := j
		if perm != nil {
			src = perm[j]
		}
		acc[j] = m.mulAddLazy(acc[j], a[src], b[j])
	}
}

// BenchmarkRowMAC sets both wide-accumulator kernels against the per-product
// loop they replaced, at fold 1, 3 (a dnum = 3 keyswitch) and 8
// (RowMACFold), on 4096-coefficient rows under a 50-bit NTT prime:
//
//	fold/F=k/{wide,perproduct}: MulAddRowsLazy, a BSGS diagonal fold of k
//	  terms into both accumulator components;
//	key/F=k/{wide,perproduct}: InnerProductRows with an automorphism gather,
//	  k digits against both key rows, closed to canonical.
//
// go test -run '^$' -bench RowMAC ./internal/ring/
func BenchmarkRowMAC(b *testing.B) {
	const n = 4096
	m := NewModulus(GenerateNTTPrimes(50, n, 1)[0])
	rng := rand.New(rand.NewSource(1))
	rows := func(k int, bound uint64) [][]uint64 {
		out := make([][]uint64, k)
		for i := range out {
			out[i] = randomCoeffs(rng, n, bound)
		}
		return out
	}
	galois := GaloisElementForRotation(n, 1)
	perm := AutomorphismNTTIndex(n, galois)
	for _, k := range []int{1, 3, RowMACFold} {
		x0, x1, p := rows(k, 2*m.Q), rows(k, 2*m.Q), rows(k, m.Q)
		acc := rows(2, 2*m.Q)
		b.Run(fmt.Sprintf("fold/F=%d/wide", k), func(b *testing.B) {
			for range b.N {
				m.MulAddRowsLazy(acc[0], acc[1], x0, x1, p)
			}
		})
		b.Run(fmt.Sprintf("fold/F=%d/perproduct", k), func(b *testing.B) {
			for range b.N {
				for t := range k {
					perProductRowMAC(m, acc[0], x0[t], p[t], nil)
					perProductRowMAC(m, acc[1], x1[t], p[t], nil)
				}
			}
		})
		k0, k1 := rows(k, m.Q), rows(k, m.Q)
		b.Run(fmt.Sprintf("key/F=%d/wide", k), func(b *testing.B) {
			for range b.N {
				m.InnerProductRows(acc[0], acc[1], p, k0, k1, galois)
			}
		})
		b.Run(fmt.Sprintf("key/F=%d/perproduct", k), func(b *testing.B) {
			for range b.N {
				clear(acc[0])
				clear(acc[1])
				for i := range k {
					perProductRowMAC(m, acc[0], p[i], k0[i], perm)
					perProductRowMAC(m, acc[1], p[i], k1[i], perm)
				}
				ReduceFinalVec(acc[0], m.Q)
				ReduceFinalVec(acc[1], m.Q)
			}
		})
	}
}

// reduceSignedRowRef is the coefficient-row reduction ReduceIntRow replaced:
// a 16-byte SignedWord per coefficient, a Barrett reduction when the
// magnitude reaches q, and branches on the shift and the sign.
func reduceSignedRowRef(m Modulus, out []uint64, w []SignedWord) {
	w = w[:len(out)]
	for j, x := range w {
		r := x.Mag
		if r >= m.Q {
			r = m.Reduce64(r)
		}
		if x.Shift != 0 {
			r = m.MulModBarrett(r, PowMod(2, uint64(x.Shift), m.Q))
		}
		if x.Neg {
			r = NegMod(r, m.Q)
		}
		out[j] = r
	}
}

// BenchmarkReduceCoeffRow sets the encoder's row reduction, ReduceIntRow on
// int64 words, against the SignedWord loop it replaced, on one
// 4096-coefficient row of integer parts of both signs below 2^50 (a unit
// slot value at the default 2^45 scale, with the FFT's growth) under a
// 50-bit NTT prime; the two must agree word for word.
//
// go test -run '^$' -bench ReduceCoeffRow ./internal/ring/
func BenchmarkReduceCoeffRow(b *testing.B) {
	const n = 4096
	m := NewModulus(GenerateNTTPrimes(50, n, 1)[0])
	rng := rand.New(rand.NewSource(1))
	ints, words := make([]int64, n), make([]SignedWord, n)
	for j := range ints {
		ints[j] = rng.Int63n(1<<51) - 1<<50
		words[j] = SignedWord{Mag: uint64(max(ints[j], -ints[j])), Neg: ints[j] < 0}
	}
	got, want := make([]uint64, n), make([]uint64, n)
	m.ReduceIntRow(got, ints)
	reduceSignedRowRef(m, want, words)
	for j := range got {
		if got[j] != want[j] {
			b.Fatalf("coefficient %d: ReduceIntRow %d, the SignedWord loop %d", j, got[j], want[j])
		}
	}
	b.Run("int64", func(b *testing.B) {
		for range b.N {
			m.ReduceIntRow(got, ints)
		}
	})
	b.Run("signedword", func(b *testing.B) {
		for range b.N {
			reduceSignedRowRef(m, want, words)
		}
	})
}
