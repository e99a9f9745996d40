package ring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testRing(t testing.TB, n, levels int) *Ring {
	t.Helper()
	primes := GenerateNTTPrimes(45, n, levels)
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randomCoeffs(rng *rand.Rand, n int, q uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % q
	}
	return a
}

// naiveNegacyclicMul computes a*b in Z_q[X]/(X^N+1) directly.
func naiveNegacyclicMul(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := MulMod(a[i], b[j], q)
			k := i + j
			if k < n {
				out[k] = AddMod(out[k], p, q)
			} else {
				out[k-n] = SubMod(out[k-n], p, q)
			}
		}
	}
	return out
}

func TestNTTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{4, 8, 64, 256, 1024} {
		q := GenerateNTTPrimes(40, n, 1)[0]
		tbl := NewNTTTable(n, q, PrimitiveRoot2N(n, q))
		a := randomCoeffs(rng, n, q)
		orig := append([]uint64(nil), a...)
		tbl.Forward(a)
		tbl.Inverse(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("n=%d: round trip mismatch at %d: %d != %d", n, i, a[i], orig[i])
			}
		}
	}
}

// TestMergedKernelBitIdentity is the merged-twist/lazy kernel's oracle test:
// for every LogN in 1..14 and both directions, the default kernels must be
// bit-identical to the five-pass radix-2 reference on random inputs, and the
// round trip must restore the input exactly.
func TestMergedKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for logN := 1; logN <= 14; logN++ {
		n := 1 << logN
		tbl, oracle := newTableAndOracle(n, 45)
		for trial := 0; trial < 4; trial++ {
			orig := randomCoeffs(rng, n, tbl.Mod.Q)
			fast := append([]uint64(nil), orig...)
			ref := append([]uint64(nil), orig...)

			tbl.Forward(fast)
			oracle.Forward(ref)
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("logN=%d trial=%d: forward differs at %d: %d != %d", logN, trial, i, fast[i], ref[i])
				}
			}

			tbl.Inverse(fast)
			oracle.Inverse(ref)
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("logN=%d trial=%d: inverse differs at %d: %d != %d", logN, trial, i, fast[i], ref[i])
				}
				if fast[i] != orig[i] {
					t.Fatalf("logN=%d trial=%d: round trip differs at %d: %d != %d", logN, trial, i, fast[i], orig[i])
				}
			}
		}
	}
}

// TestForwardAcceptsLazyInput pins the lazy-input contract of the merged
// forward kernel: residues lifted by q, 2q or 3q (any value < 4q) must
// transform to the same canonical output as their canonical representatives. The
// evaluator's ModDown/rescale paths rely on this to skip their own final
// corrections before re-entering the NTT domain.
func TestForwardAcceptsLazyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{8, 64, 1024} {
		q := GenerateNTTPrimes(45, n, 1)[0]
		tbl := NewNTTTable(n, q, PrimitiveRoot2N(n, q))
		a := randomCoeffs(rng, n, q)
		lazy := make([]uint64, n)
		for i, v := range a {
			lazy[i] = v + q*uint64(rng.Intn(4)) // [0, 4q)
		}
		tbl.Forward(a)
		tbl.Forward(lazy)
		for i := range a {
			if a[i] != lazy[i] {
				t.Fatalf("n=%d: lazy input diverged at %d: %d != %d", n, i, lazy[i], a[i])
			}
		}
	}
}

func TestNTTConvolutionMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 16, 64} {
		q := GenerateNTTPrimes(40, n, 1)[0]
		tbl := NewNTTTable(n, q, PrimitiveRoot2N(n, q))
		a := randomCoeffs(rng, n, q)
		b := randomCoeffs(rng, n, q)
		want := naiveNegacyclicMul(a, b, q)

		fa := append([]uint64(nil), a...)
		fb := append([]uint64(nil), b...)
		tbl.Forward(fa)
		tbl.Forward(fb)
		for i := range fa {
			fa[i] = MulMod(fa[i], fb[i], q)
		}
		tbl.Inverse(fa)
		for i := range fa {
			if fa[i] != want[i] {
				t.Fatalf("n=%d: convolution mismatch at %d: %d != %d", n, i, fa[i], want[i])
			}
		}
	}
}

func TestNTTLinearityProperty(t *testing.T) {
	n := 64
	q := GenerateNTTPrimes(40, n, 1)[0]
	tbl := NewNTTTable(n, q, PrimitiveRoot2N(n, q))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCoeffs(rng, n, q)
		b := randomCoeffs(rng, n, q)
		sum := make([]uint64, n)
		for i := range sum {
			sum[i] = AddMod(a[i], b[i], q)
		}
		tbl.Forward(a)
		tbl.Forward(b)
		tbl.Forward(sum)
		for i := range sum {
			if sum[i] != AddMod(a[i], b[i], q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNTTTableValidation(t *testing.T) {
	q := GenerateNTTPrimes(40, 64, 1)[0]
	psi := PrimitiveRoot2N(64, q)
	cases := []struct {
		name string
		fn   func()
	}{
		{"non power of two", func() { NewNTTTable(48, q, psi) }},
		{"too small", func() { NewNTTTable(1, q, psi) }},
		{"bad psi", func() { NewNTTTable(64, q, 1) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	primes := GenerateNTTPrimes(45, 1024, 5)
	if len(primes) != 5 {
		t.Fatalf("got %d primes, want 5", len(primes))
	}
	seen := map[uint64]bool{}
	for _, q := range primes {
		if seen[q] {
			t.Fatalf("duplicate prime %d", q)
		}
		seen[q] = true
		if (q-1)%(2*1024) != 0 {
			t.Fatalf("prime %d is not NTT friendly", q)
		}
		if !isPrime(q) {
			t.Fatalf("%d is not prime", q)
		}
	}
}

func TestPrimitiveRoot2N(t *testing.T) {
	for _, n := range []int{8, 256, 4096} {
		q := GenerateNTTPrimes(50, n, 1)[0]
		psi := PrimitiveRoot2N(n, q)
		if PowMod(psi, uint64(n), q) != q-1 {
			t.Fatalf("psi^n != -1 for n=%d", n)
		}
		if PowMod(psi, uint64(2*n), q) != 1 {
			t.Fatalf("psi^(2n) != 1 for n=%d", n)
		}
	}
}
