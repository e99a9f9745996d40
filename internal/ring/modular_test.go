package ring

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

const testQ = uint64(0x1fffffffffe00001) // 61-bit NTT-friendly prime

func TestAddSubNegMod(t *testing.T) {
	q := uint64(97)
	for a := uint64(0); a < q; a += 7 {
		for b := uint64(0); b < q; b += 5 {
			if got, want := AddMod(a, b, q), (a+b)%q; got != want {
				t.Fatalf("AddMod(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got, want := SubMod(a, b, q), (a+q-b)%q; got != want {
				t.Fatalf("SubMod(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
		if got, want := NegMod(a, q), (q-a)%q; got != want {
			t.Fatalf("NegMod(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestMulModAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []uint64{3, 97, 65537, 1<<30 + 35, testQ}
	for _, q := range qs {
		if q >= 1<<62 {
			continue
		}
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, new(big.Int).SetUint64(q))
			if got := MulMod(a, b, q); got != want.Uint64() {
				t.Fatalf("MulMod(%d,%d,%d) = %d, want %d", a, b, q, got, want)
			}
		}
	}
}

func TestMulModBarrettMatchesMulMod(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range []uint64{97, 12289, 1<<45 + 0x7001, testQ} {
		m := NewModulus(q)
		for i := 0; i < 500; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			if got, want := m.MulModBarrett(a, b), MulMod(a, b, q); got != want {
				t.Fatalf("q=%d: Barrett(%d,%d) = %d, want %d", q, a, b, got, want)
			}
		}
	}
}

func TestMulModBarrettProperty(t *testing.T) {
	m := NewModulus(testQ)
	f := func(a, b uint64) bool {
		a %= testQ
		b %= testQ
		return m.MulModBarrett(a, b) == MulMod(a, b, testQ)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulModShoupMatchesMulMod(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range []uint64{97, 12289, testQ} {
		for i := 0; i < 300; i++ {
			a := rng.Uint64() % q
			w := rng.Uint64() % q
			ws := ShoupPrecomp(w, q)
			if got, want := MulModShoup(a, w, ws, q), MulMod(a, w, q); got != want {
				t.Fatalf("q=%d: Shoup(%d,%d) = %d, want %d", q, a, w, got, want)
			}
		}
	}
}

func TestPowModAndInvMod(t *testing.T) {
	q := uint64(12289)
	if got := PowMod(3, 0, q); got != 1 {
		t.Fatalf("PowMod(3,0) = %d, want 1", got)
	}
	if got := PowMod(2, 10, q); got != 1024 {
		t.Fatalf("PowMod(2,10) = %d, want 1024", got)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		a := rng.Uint64()%(q-1) + 1
		inv := InvMod(a, q)
		if MulMod(a, inv, q) != 1 {
			t.Fatalf("InvMod(%d) * %d != 1", a, a)
		}
	}
}

func TestInvModZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InvMod(0) did not panic")
		}
	}()
	InvMod(0, 97)
}

func TestNewModulusRejectsOutOfRange(t *testing.T) {
	for _, q := range []uint64{0, 1 << 62, 1 << 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewModulus(%d) did not panic", q)
				}
			}()
			NewModulus(q)
		}()
	}
}

// lazyRow returns a row of residues lazy in [0, 2q).
func lazyRow(rng *rand.Rand, n int, q uint64) []uint64 {
	row := make([]uint64, n)
	for j := range row {
		row[j] = rng.Uint64() % (2 * q)
	}
	return row
}

// The gather and Shoup row kernels must agree with the plain lazy MAC applied
// to materialized inputs: gathering a[perm[j]] is the same as permuting a
// first, and a constant Shoup multiplier is the same as a broadcast row.
func TestRowLazyKernelsMatchReference(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(21))
	for _, q := range []uint64{12289, 1<<45 + 0x7001, testQ} {
		m := NewModulus(q)
		a := lazyRow(rng, n, q)
		b := lazyRow(rng, n, q)
		perm := rng.Perm(n)
		w := rng.Uint64() % q
		ws := ShoupPrecomp(w, q)

		permuted := make([]uint64, n)
		broadcast := make([]uint64, n)
		canonB := make([]uint64, n)
		for j := range permuted {
			permuted[j] = a[perm[j]]
			broadcast[j] = w
			canonB[j] = b[j] % q
		}

		// The key MAC's gather form against the lazy MAC on the permuted row:
		// both output rows, canonical.
		out0, out1 := make([]uint64, n), make([]uint64, n)
		want := make([]uint64, n)
		m.InnerProductRows(out0, out1, [][]uint64{a}, [][]uint64{canonB}, [][]uint64{broadcast}, perm)
		m.MulAddRowLazy(want, permuted, canonB)
		checkCanonRowsEqual(t, "InnerProductRows gather, first key row", out0, want, q)
		clear(want)
		m.MulAddRowLazy(want, permuted, broadcast)
		checkCanonRowsEqual(t, "InnerProductRows gather, second key row", out1, want, q)

		acc := lazyRow(rng, n, q)
		want = append([]uint64(nil), acc...)
		m.MulAddShoupRowLazy(acc, a, w, ws)
		m.MulAddRowLazy(want, a, broadcast)
		checkLazyRowsEqual(t, "MulAddShoupRowLazy", acc, want, q)

		acc = lazyRow(rng, n, q)
		want = append([]uint64(nil), acc...)
		m.MulAddShoupRowLazyGather(acc, a, w, ws, perm)
		m.MulAddRowLazy(want, permuted, broadcast)
		checkLazyRowsEqual(t, "MulAddShoupRowLazyGather", acc, want, q)

		acc = lazyRow(rng, n, q)
		want = append([]uint64(nil), acc...)
		m.AddRowLazy(acc, b)
		for j := range want {
			want[j] = AddMod(want[j]%q, b[j]%q, q)
			// re-laze so the comparison below treats both sides uniformly
		}
		checkLazyRowsEqual(t, "AddRowLazy", acc, want, q)
	}
}

// checkLazyRowsEqual canonicalizes both rows and compares, also asserting the
// lazy output contract acc[j] < 2q.
func checkLazyRowsEqual(t *testing.T, name string, got, want []uint64, q uint64) {
	t.Helper()
	for j := range got {
		if got[j] >= 2*q {
			t.Fatalf("%s: acc[%d] = %d breaks the lazy bound 2q (q=%d)", name, j, got[j], q)
		}
		if got[j]%q != want[j]%q {
			t.Fatalf("%s: acc[%d] ≡ %d mod q, want %d (q=%d)", name, j, got[j]%q, want[j]%q, q)
		}
	}
}

// checkCanonRowsEqual asserts got is canonical (every element < q) and
// congruent to want element by element.
func checkCanonRowsEqual(t *testing.T, name string, got, want []uint64, q uint64) {
	t.Helper()
	for j := range got {
		if got[j] >= q || got[j] != want[j]%q {
			t.Fatalf("%s: out[%d] = %d, want canonical %d (q=%d)", name, j, got[j], want[j]%q, q)
		}
	}
}

// TestReduceSignedRow checks the signed-word reduction against math/big on
// both sides of every branch: magnitudes below and above q, zero, the full
// 64-bit word, and shifts up to the largest float64 exponent.
func TestReduceSignedRow(t *testing.T) {
	for _, q := range []uint64{testQ, GenerateNTTPrimes(45, 1024, 1)[0], 12289} {
		m := NewModulus(q)
		var words []SignedWord
		for _, mag := range []uint64{0, 1, q - 1, q, q + 1, 1<<53 - 1, 1 << 63, ^uint64(0)} {
			for _, shift := range []uint16{0, 1, 11, 12, 63, 64, 500, 971} {
				words = append(words, SignedWord{Mag: mag, Shift: shift}, SignedWord{Mag: mag, Shift: shift, Neg: true})
			}
		}
		out := make([]uint64, len(words))
		m.ReduceSignedRow(out, words)
		bq := new(big.Int).SetUint64(q)
		for i, w := range words {
			want := new(big.Int).Lsh(new(big.Int).SetUint64(w.Mag), uint(w.Shift))
			if w.Neg {
				want.Neg(want)
			}
			if want.Mod(want, bq); out[i] != want.Uint64() {
				t.Fatalf("q=%d: %+v reduces to %d, want %v", q, w, out[i], want)
			}
		}
	}
}
