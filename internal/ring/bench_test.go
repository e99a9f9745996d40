package ring

import (
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
