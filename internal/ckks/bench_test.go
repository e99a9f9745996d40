package ckks

import "testing"

func benchContext(b *testing.B) *testContext {
	b.Helper()
	return newTestContext(b, 12, 4, []int{1})
}

func BenchmarkEncrypt(b *testing.B) {
	tc := benchContext(b)
	vals := randomComplex(tc.params.Slots(), 1)
	pt, _ := encodeMax(tc.enc, vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.encr.Encrypt(pt)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	tc := benchContext(b)
	vals := randomComplex(tc.params.Slots(), 2)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.decr.Decrypt(ct)
	}
}

func BenchmarkHAdd(b *testing.B) {
	tc := benchContext(b)
	vals := randomComplex(tc.params.Slots(), 3)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.Add(ct, ct)
	}
}

func BenchmarkPMult(b *testing.B) {
	tc := benchContext(b)
	vals := randomComplex(tc.params.Slots(), 4)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.MulPlain(ct, pt)
	}
}

func BenchmarkCMultRelin(b *testing.B) {
	tc := benchContext(b)
	vals := randomComplex(tc.params.Slots(), 5)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.MulRelin(ct, ct)
	}
}

// BenchmarkRotation is one Rotate at N = 2^12, its result released so the
// reported allocation is the op's own: the keyswitch's gathers step through
// the automorphism and build no index table.
func BenchmarkRotation(b *testing.B) {
	tc := benchContext(b)
	vals := randomComplex(tc.params.Slots(), 6)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.Release(tc.eval.Rotate(ct, 1))
	}
}

func BenchmarkRescale(b *testing.B) {
	tc := benchContext(b)
	vals := randomComplex(tc.params.Slots(), 7)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	prod := tc.eval.MulPlain(ct, pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.Rescale(prod)
	}
}

// BenchmarkDecode decodes a decrypted ciphertext at he-rot's output level
// (level 3 of TestParameters(12, 4), the default scale): the word path, no
// coefficient reaching math/big.
func BenchmarkDecode(b *testing.B) {
	tc := benchContext(b)
	pt, _ := tc.enc.EncodeAtLevel(randomComplex(tc.params.Slots(), 11), tc.params.DefaultScale(), 3)
	dec := tc.decr.Decrypt(tc.encr.Encrypt(pt))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.enc.Decode(dec)
	}
}

func BenchmarkEncode(b *testing.B) {
	tc := benchContext(b)
	vals := randomComplex(tc.params.Slots(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeMax(tc.enc, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRotationsDirect vs BenchmarkRotationsHoisted: the hoisting
// ablation — 8 rotations of one ciphertext with and without sharing the
// digit decomposition.
func BenchmarkRotationsDirect(b *testing.B) {
	tc := newTestContext(b, 12, 4, []int{1, 2, 3, 4, 5, 6, 7, 8})
	vals := randomComplex(tc.params.Slots(), 9)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 1; r <= 8; r++ {
			tc.eval.Rotate(ct, r)
		}
	}
}

func BenchmarkRotationsHoisted(b *testing.B) {
	tc := newTestContext(b, 12, 4, []int{1, 2, 3, 4, 5, 6, 7, 8})
	vals := randomComplex(tc.params.Slots(), 10)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	rots := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.RotateHoisted(ct, rots)
	}
}

// BenchmarkRotationsHoistedExt is the double-hoisted variant of
// BenchmarkRotationsHoisted: the same 8 rotations stay in the extended
// Q·P basis and are folded into one accumulator, paying a single deferred
// ModDown instead of one per rotation.
func BenchmarkRotationsHoistedExt(b *testing.B) {
	tc := newTestContext(b, 12, 4, []int{1, 2, 3, 4, 5, 6, 7, 8})
	vals := randomComplex(tc.params.Slots(), 10)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)
	rots := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exts := tc.eval.RotateHoistedExt(ct, rots)
		acc := exts[rots[0]]
		for _, rot := range rots[1:] {
			tc.eval.AddExtAcc(exts[rot], acc)
			tc.eval.ReleaseExt(exts[rot])
		}
		tc.eval.ModDownExt(acc)
	}
}
