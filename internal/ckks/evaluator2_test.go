package ckks

import (
	"testing"
)

// TestMulNoRelinMatchesMulRelin pins the split tensor/relinearize path
// bit-identical to the fused MulRelin: the same tensor product followed by
// the same keyswitch must produce the same residues.
func TestMulNoRelinMatchesMulRelin(t *testing.T) {
	tc := newTestContext(t, 8, 3, nil)
	a := randomComplex(tc.params.Slots(), 3)
	b := randomComplex(tc.params.Slots(), 4)
	pa, err := encodeMax(tc.enc, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := encodeMax(tc.enc, b)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := tc.encr.Encrypt(pa), tc.encr.Encrypt(pb)

	fused := tc.eval.MulRelin(ca, cb)
	split := tc.eval.ModDownExt(tc.eval.RelinearizeExt(tc.eval.MulNoRelin(ca, cb)))
	if !fused.Equal(split) {
		t.Fatal("ModDownExt(RelinearizeExt(MulNoRelin(a,b))) is not bit-identical to MulRelin(a,b)")
	}
}

// TestLazyRelinearization checks the deferred form: folding two degree-2
// products with Add2 and relinearizing once agrees with relinearizing each
// product, within keyswitch noise.
func TestLazyRelinearization(t *testing.T) {
	tc := newTestContext(t, 8, 3, nil)
	slots := tc.params.Slots()
	vecs := make([][]complex128, 4)
	cts := make([]*Ciphertext, 4)
	for i := range vecs {
		vecs[i] = randomComplex(slots, int64(10+i))
		pt, err := encodeMax(tc.enc, vecs[i])
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = tc.encr.Encrypt(pt)
	}

	// Eager: relinearize each product, then add.
	eager := tc.eval.Add(tc.eval.MulRelin(cts[0], cts[1]), tc.eval.MulRelin(cts[2], cts[3]))
	// Lazy: fold the degree-2 tensors, relinearize once.
	lazy := tc.eval.ModDownExt(tc.eval.RelinearizeExt(tc.eval.Add2(tc.eval.MulNoRelin(cts[0], cts[1]), tc.eval.MulNoRelin(cts[2], cts[3]))))

	want := make([]complex128, slots)
	for i := range want {
		want[i] = vecs[0][i]*vecs[1][i] + vecs[2][i]*vecs[3][i]
	}
	gotEager := tc.enc.Decode(tc.decr.Decrypt(tc.eval.Rescale(eager)))
	gotLazy := tc.enc.Decode(tc.decr.Decrypt(tc.eval.Rescale(lazy)))
	if e := maxErr(gotEager, want); e > 1e-4 {
		t.Fatalf("eager relinearization error %g", e)
	}
	if e := maxErr(gotLazy, want); e > 1e-4 {
		t.Fatalf("lazy relinearization error %g", e)
	}
	if e := maxErr(gotLazy, gotEager); e > 1e-4 {
		t.Fatalf("lazy vs eager divergence %g", e)
	}
}

// TestAdd2LevelAlignment checks that Add2 truncates the deeper operand.
func TestAdd2LevelAlignment(t *testing.T) {
	tc := newTestContext(t, 8, 4, nil)
	slots := tc.params.Slots()
	va, vb := randomComplex(slots, 21), randomComplex(slots, 22)
	pa, _ := encodeMax(tc.enc, va)
	pb, _ := encodeMax(tc.enc, vb)
	ca, cb := tc.encr.Encrypt(pa), tc.encr.Encrypt(pb)

	hi := tc.eval.MulNoRelin(ca, cb)
	lowA, lowB := ca.CopyNew(), cb.CopyNew()
	lowA.DropLevel(1)
	lowB.DropLevel(1)
	lo := tc.eval.MulNoRelin(lowA, lowB)

	sum := tc.eval.Add2(hi, lo)
	if sum.Level() != lo.Level() {
		t.Fatalf("Add2 level = %d, want %d", sum.Level(), lo.Level())
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = 2 * va[i] * vb[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(tc.eval.ModDownExtRescale(tc.eval.RelinearizeExt(sum))))
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("aligned Add2 error %g", e)
	}
}
