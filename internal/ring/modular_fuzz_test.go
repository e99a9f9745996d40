package ring

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// Scalar forms of the lazy arithmetic the row kernels and NTT butterflies
// inline: one element at a time, so FuzzModularOps can check each step's
// congruence and bound against math/big (and MulAddRowLazy against its scalar
// form exactly).

// addModLazy returns a+b as a lazy residue: a, b ∈ [0, 2q) in, result in
// [0, 2q). twoQ must be 2q; the transient sum is < 4q < 2^64.
func addModLazy(a, b, twoQ uint64) uint64 {
	c := a + b
	if c >= twoQ {
		c -= twoQ
	}
	return c
}

// subModLazy returns a-b as a lazy residue: a, b ∈ [0, 2q) in, result in
// [0, 2q). twoQ must be 2q.
func subModLazy(a, b, twoQ uint64) uint64 {
	c := a + twoQ - b
	if c >= twoQ {
		c -= twoQ
	}
	return c
}

// mulAddLazy returns acc + a*b as a lazy residue in [0, 2q): a fused
// Barrett multiply-accumulate for operand pairs without Shoup tables (both
// sides variable, e.g. digit × switching-key rows). acc must be in [0, 2q);
// the transient sum is < 4q < 2^64.
func (m Modulus) mulAddLazy(acc, a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	c := acc + m.Reduce128Lazy(hi, lo)
	if twoQ := m.Q << 1; c >= twoQ {
		c -= twoQ
	}
	return c
}

// mulAddShoupLazy returns acc + a*w as a lazy residue: acc ∈ [0, 2q) in,
// result in [0, 2q) — a fused Shoup multiply-accumulate (one load-mul-add
// chain instead of a multiply pass and an add pass).
func mulAddShoupLazy(acc, a, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	c := acc + a*w - hi*q // < 4q, within the uint64 budget
	if twoQ := q << 1; c >= twoQ {
		c -= twoQ
	}
	return c
}

// FuzzModularOps differentially tests every modular-reduction strategy in the
// package — plain %, Barrett (Reduce128/Reduce64/MulModBarrett), Shoup and
// the wide-accumulator row MACs — against math/big across random odd moduli.
// A divergence
// here means two "equivalent" compute-unit models would disagree on the same
// ciphertext limb, which is exactly the class of bug the cross-checked CU
// implementations are meant to exclude.
func FuzzModularOps(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(17))
	f.Add(uint64(0), uint64(0), uint64(3))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(1)<<61, uint64(1)<<61-1, uint64(1)<<61+1)
	f.Add(uint64(12345), uint64(67890), uint64(0x1fffffffffe00001)) // NTT prime

	f.Fuzz(func(t *testing.T, a, b, qseed uint64) {
		// Clamp the modulus into the package contract: odd, 3 <= q < 2^62.
		q := qseed | 1
		if q >= 1<<62 {
			q >>= 2
			q |= 1
		}
		if q < 3 {
			q = 3
		}
		bigQ := new(big.Int).SetUint64(q)
		ref := func(x *big.Int) uint64 { return new(big.Int).Mod(x, bigQ).Uint64() }

		// Reduction of arbitrary words.
		m := NewModulus(q)
		if got, want := Reduce(a, q), a%q; got != want {
			t.Fatalf("Reduce(%d, %d) = %d, want %d", a, q, got, want)
		}
		if got, want := m.Reduce64(a), a%q; got != want {
			t.Fatalf("Reduce64(%d) mod %d = %d, want %d", a, q, got, want)
		}

		ar, br := a%q, b%q
		bigA := new(big.Int).SetUint64(ar)
		bigB := new(big.Int).SetUint64(br)

		// Add/Sub/Neg against math/big.
		if got, want := AddMod(ar, br, q), ref(new(big.Int).Add(bigA, bigB)); got != want {
			t.Fatalf("AddMod(%d, %d, %d) = %d, want %d", ar, br, q, got, want)
		}
		if got, want := SubMod(ar, br, q), ref(new(big.Int).Sub(bigA, bigB)); got != want {
			t.Fatalf("SubMod(%d, %d, %d) = %d, want %d", ar, br, q, got, want)
		}
		if got, want := NegMod(ar, q), ref(new(big.Int).Neg(bigA)); got != want {
			t.Fatalf("NegMod(%d, %d) = %d, want %d", ar, q, got, want)
		}

		// Full-product multiplication: division, Barrett and Shoup must all
		// agree with math/big.
		wantMul := ref(new(big.Int).Mul(bigA, bigB))
		if got := MulMod(ar, br, q); got != wantMul {
			t.Fatalf("MulMod(%d, %d, %d) = %d, want %d", ar, br, q, got, wantMul)
		}
		if got := m.MulModBarrett(ar, br); got != wantMul {
			t.Fatalf("MulModBarrett(%d, %d) mod %d = %d, want %d", ar, br, q, got, wantMul)
		}
		bShoup := ShoupPrecomp(br, q)
		if got := MulModShoup(ar, br, bShoup, q); got != wantMul {
			t.Fatalf("MulModShoup(%d, %d, %d) mod %d = %d, want %d", ar, br, bShoup, q, got, wantMul)
		}

		// Reduce128 on the raw 128-bit product (the NTT pointwise path).
		prod := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(br))
		hi := new(big.Int).Rsh(prod, 64).Uint64()
		lo := prod.Uint64()
		if hi < q { // contract: value below q*2^64
			if got, want := m.Reduce128(hi, lo), ref(prod); got != want {
				t.Fatalf("Reduce128(%d, %d) mod %d = %d, want %d", hi, lo, q, got, want)
			}
		}

		// Centered digit lift: CenteredMod(c, q0, q) must equal the signed
		// balanced representative of c mod q0, reduced mod q.
		q0 := b | 1
		if q0 < 3 {
			q0 = 3
		}
		c := a % q0
		lift := new(big.Int).SetUint64(c)
		if c > q0>>1 {
			lift.Sub(lift, new(big.Int).SetUint64(q0))
		}
		if got, want := CenteredMod(c, q0, q), ref(lift); got != want {
			t.Fatalf("CenteredMod(%d, %d, %d) = %d, want %d", c, q0, q, got, want)
		}

		// PowMod with a small exponent against big.Exp.
		e := b % 64
		wantPow := new(big.Int).Exp(bigA, new(big.Int).SetUint64(e), bigQ).Uint64()
		if got := PowMod(ar, e, q); got != wantPow {
			t.Fatalf("PowMod(%d, %d, %d) = %d, want %d", ar, e, q, got, wantPow)
		}

		// Lazy helpers: every result must (1) be congruent to the math/big
		// value mod q and (2) respect its documented bound, so that the
		// canonicalizing ReduceFinalVec sweep recovers the exact residue.
		twoQ := 2 * q
		checkLazy := func(name string, got uint64, want *big.Int, bound uint64) {
			t.Helper()
			if got >= bound {
				t.Fatalf("%s = %d exceeds bound %d (q=%d)", name, got, bound, q)
			}
			if got%q != ref(want) {
				t.Fatalf("%s = %d ≢ %d mod %d", name, got, ref(want), q)
			}
		}
		la, lb := ar+q*(a%2), br+q*(b%2) // lazy lifts in [0, 2q)
		bigSum := new(big.Int).Add(bigA, bigB)
		checkLazy("AddModLazy", addModLazy(la, lb, twoQ), bigSum, twoQ)
		checkLazy("SubModLazy", subModLazy(la, lb, twoQ), new(big.Int).Sub(bigA, bigB), twoQ)
		vec := []uint64{la, lb}
		ReduceFinalVec(vec, q)
		if vec[0] != ar || vec[1] != br {
			t.Fatalf("ReduceFinalVec([%d %d], %d) = %v, want [%d %d]", la, lb, q, vec, ar, br)
		}
		bigProdAny := new(big.Int).Mul(new(big.Int).SetUint64(a), bigB)
		checkLazy("MulModShoupLazy", MulModShoupLazy(a, br, bShoup, q), bigProdAny, twoQ)
		bigMac := new(big.Int).Add(new(big.Int).SetUint64(la), bigProdAny)
		checkLazy("MulAddShoupLazy", mulAddShoupLazy(la, a, br, bShoup, q), bigMac, twoQ)

		// Reduce128Lazy on an arbitrary 128-bit value (a the high word, b the
		// low one) and on a product of residues, and the fused Barrett MAC.
		bigX := new(big.Int).Lsh(new(big.Int).SetUint64(a), 64)
		bigX.Or(bigX, new(big.Int).SetUint64(b))
		checkLazy("Reduce128Lazy(any)", m.Reduce128Lazy(a, b), bigX, twoQ)
		bigProd := new(big.Int).Mul(bigA, bigB)
		phi := new(big.Int).Rsh(bigProd, 64).Uint64()
		plo := bigProd.Uint64()
		checkLazy("Reduce128Lazy", m.Reduce128Lazy(phi, plo), bigProd, twoQ)
		checkLazy("MulAddLazy", m.mulAddLazy(la, ar, br), new(big.Int).Add(new(big.Int).SetUint64(la), bigProd), twoQ)

		// The row-wide form must agree exactly with its scalar counterpart.
		addRow := []uint64{la, lb}
		m.MulAddRowLazy(addRow, []uint64{ar, br}, []uint64{br, ar})
		if addRow[0] != m.mulAddLazy(la, ar, br) || addRow[1] != m.mulAddLazy(lb, br, ar) {
			t.Fatalf("MulAddRowLazy diverges from MulAddLazy: %v", addRow)
		}

		// The wide-accumulator kernels on operands drawn from the fuzz input:
		// fold length, operand rows and gather permutation all vary with it.
		rng := rand.New(rand.NewSource(int64(a ^ b<<1 ^ qseed)))
		checkWideRowMACs(t, m, rng, int(a%(RowMACFold+1)), 4, b%3 == 0)

		// A CT butterfly (x + w·y, x − w·y) composed from Shoup mul, as the
		// NTT inner loops do, checked end to end against math/big.
		w := br
		wShoup := ShoupPrecomp(w, q)
		wy := MulModShoup(ar, w, wShoup, q)
		bigWY := new(big.Int).Mul(bigA, bigB)
		if got, want := AddMod(ar, wy, q), ref(new(big.Int).Add(bigA, bigWY)); got != want {
			t.Fatalf("butterfly sum(%d, %d) mod %d = %d, want %d", ar, br, q, got, want)
		}
		if got, want := SubMod(ar, wy, q), ref(new(big.Int).Sub(bigA, bigWY)); got != want {
			t.Fatalf("butterfly diff(%d, %d) mod %d = %d, want %d", ar, br, q, got, want)
		}
	})
}

// checkWideRowMACs runs both wide-accumulator kernels on terms operand rows
// of length n — random, or every operand at its bound (x = 2q−1, p = q−1,
// acc = 2q−1) when worst — and checks every output against math/big:
// MulAddRowsLazy congruent and lazy in [0, 2q), InnerProductRows congruent
// and canonical, with the identity and a random automorphism gather.
func checkWideRowMACs(t *testing.T, m Modulus, rng *rand.Rand, terms, n int, worst bool) {
	t.Helper()
	q := m.Q
	bigQ := new(big.Int).SetUint64(q)
	rows := func(count int, bound uint64) [][]uint64 {
		out := make([][]uint64, count)
		for i := range out {
			out[i] = make([]uint64, n)
			for j := range out[i] {
				out[i][j] = bound - 1
				if !worst {
					out[i][j] = rng.Uint64() % bound
				}
			}
		}
		return out
	}
	// mac returns acc + Σ_t a[t][src]·b[t][j] exactly.
	mac := func(acc uint64, a, b [][]uint64, src, j int) *big.Int {
		s := new(big.Int).SetUint64(acc)
		for i := range a {
			s.Add(s, new(big.Int).Mul(new(big.Int).SetUint64(a[i][src]), new(big.Int).SetUint64(b[i][j])))
		}
		return s
	}
	check := func(name string, got uint64, want *big.Int, bound uint64) {
		t.Helper()
		if got >= bound || got%q != new(big.Int).Mod(want, bigQ).Uint64() {
			t.Fatalf("%s, %d terms, q=%d: got %d, want %v mod q below %d", name, terms, q, got, want, bound)
		}
	}

	x0, x1, p := rows(terms, 2*q), rows(terms, 2*q), rows(terms, q)
	acc := rows(2, 2*q)
	got0, got1 := append([]uint64(nil), acc[0]...), append([]uint64(nil), acc[1]...)
	m.MulAddRowsLazy(got0, got1, x0, x1, p)
	for j := range n {
		check("MulAddRowsLazy acc0", got0[j], mac(acc[0][j], x0, p, j, j), 2*q)
		check("MulAddRowsLazy acc1", got1[j], mac(acc[1][j], x1, p, j, j), 2*q)
	}

	k0, k1 := rows(terms, q), rows(terms, q)
	for _, galois := range []uint64{1, uint64(2*rng.Intn(2*n) + 1)} {
		out0, out1 := make([]uint64, n), make([]uint64, n)
		m.InnerProductRows(out0, out1, x0, k0, k1, galois)
		for j, src := range AutomorphismNTTIndex(n, galois) {
			check("InnerProductRows out0", out0[j], mac(0, x0, k0, src, j), q)
			check("InnerProductRows out1", out1[j], mac(0, x0, k1, src, j), q)
		}
	}
}

// TestWideRowMACMatchesBig is the table half of the wide-accumulator
// differential: every fold length from empty to RowMACFold, random and
// worst-case operands, on the largest prime the q < 2^62 contract admits —
// whose worst-case full fold must push the high word past 2q, so
// Reduce128Lazy sees sums far above q·2^64 — a 61-bit prime, and the
// 45/50/55-bit NTT primes of the benchmark's parameter sets.
func TestWideRowMACMatchesBig(t *testing.T) {
	const top = 1<<62 - 57 // largest prime below 2^62
	rng := rand.New(rand.NewSource(25))
	for _, q := range []uint64{top, testQ, GenerateNTTPrimes(55, 512, 1)[0], GenerateNTTPrimes(50, 512, 1)[0], GenerateNTTPrimes(45, 512, 1)[0]} {
		m := NewModulus(q)
		for terms := 0; terms <= RowMACFold; terms++ {
			checkWideRowMACs(t, m, rng, terms, 64, false)
			checkWideRowMACs(t, m, rng, terms, 8, true)
		}
	}

	// The worst case at the top modulus really hands Reduce128Lazy a high
	// word past 2q, and F = RowMACFold is the widest fold whose sum fits 128
	// bits. Reduce128Lazy itself takes any 128-bit value: high words from
	// that worst case up to 2^64−1.
	sum := func(f int64) *big.Int {
		x, p := big.NewInt(2*top-1), big.NewInt(top-1)
		s := new(big.Int).Mul(x, p)
		return s.Mul(s, big.NewInt(f)).Add(s, x)
	}
	hi := new(big.Int).Rsh(sum(RowMACFold), 64).Uint64()
	if hi < 2*top {
		t.Fatalf("worst-case fold high word %d stays below 2q: the wide input is not covered", hi)
	}
	check := func(q, h, l uint64) {
		t.Helper()
		x := new(big.Int).Lsh(new(big.Int).SetUint64(h), 64)
		x.Or(x, new(big.Int).SetUint64(l))
		want := x.Mod(x, new(big.Int).SetUint64(q)).Uint64()
		if got := NewModulus(q).Reduce128Lazy(h, l); got >= 2*q || got%q != want {
			t.Fatalf("Reduce128Lazy(%d, %d) mod %d = %d, want ≡ %d in [0, 2q)", h, l, q, got, want)
		}
	}
	for _, q := range []uint64{top, testQ, 3} {
		for _, h := range []uint64{hi, hi - top, q, q - 1, 2 * q, 4*q - 1, 1<<63 + 12345, ^uint64(0)} {
			for _, l := range []uint64{0, 1, q, rng.Uint64(), ^uint64(0)} {
				check(q, h, l)
			}
		}
	}
	// A quotient estimate two short (raw remainder in [2q, 3q)): the case
	// the closing 2q subtraction exists for.
	check(577, 1<<64-3, 9888136238492157485)
	if sum(RowMACFold).BitLen() > 128 || sum(RowMACFold+1).BitLen() <= 128 {
		t.Fatalf("RowMACFold = %d is not the widest fold under 2^128 at q = 2^62−57", RowMACFold)
	}
}
