// Package ring implements the polynomial-ring arithmetic substrate used by
// the CKKS scheme and by the Hydra accelerator model: 64-bit modular
// arithmetic (Barrett and Shoup reductions, lazy [0,2q) variants, fused
// multiply-accumulate kernels), the negacyclic NTT (merged-twist lazy
// radix-4 default, generic and per-degree generated, plus the radix-2
// reference oracle), RNS polynomials over a chain of NTT-friendly primes,
// and Galois automorphisms.
//
// All moduli are required to satisfy q < 2^62 so that lazy additions of up to
// four residues never overflow a uint64.
package ring

import "math/bits"

// Modulus bundles a prime q with the precomputed constants needed for fast
// Barrett reduction of 128-bit products.
type Modulus struct {
	Q uint64
	// BarrettHi and BarrettLo hold floor(2^128 / Q) as a 128-bit value.
	BarrettHi uint64
	BarrettLo uint64
}

// NewModulus precomputes Barrett constants for q. It panics if q is zero or
// does not fit the q < 2^62 contract.
func NewModulus(q uint64) Modulus {
	if q == 0 || q >= 1<<62 {
		panic("ring: modulus must satisfy 0 < q < 2^62")
	}
	hi, lo := barrettConstant(q)
	return Modulus{Q: q, BarrettHi: hi, BarrettLo: lo}
}

// barrettConstant returns floor(2^128 / q) as (hi, lo) 64-bit words.
func barrettConstant(q uint64) (hi, lo uint64) {
	// 2^128 / q = (2^64 / q) * 2^64 + ((2^64 mod q) * 2^64) / q.
	hi, rem := bits.Div64(1, 0, q) // floor(2^64 / q), 2^64 mod q
	lo, _ = bits.Div64(rem, 0, q)
	return hi, lo
}

// Reduce returns a mod q. It is the sanctioned spelling of a raw reduction
// for scalar setup values outside this package (Shoup precomputation inputs,
// CRT base-conversion constants); coefficient loops should use the
// precomputed Barrett/Shoup forms instead.
func Reduce(a, q uint64) uint64 { return a % q }

// CenteredMod lifts the residue c ∈ [0, q0) to its balanced representative
// in (-q0/2, q0/2] and reduces that modulo q. This is the digit lift of RNS
// base conversion (rescale, ModDown, modulus raise): taking the centered
// remainder first keeps the rounding error of the division additive instead
// of biased.
func CenteredMod(c, q0, q uint64) uint64 {
	if c <= q0>>1 {
		return c % q
	}
	return NegMod((q0-c)%q, q)
}

// AddMod returns a+b mod q for a, b < q.
func AddMod(a, b, q uint64) uint64 {
	c := a + b
	if c >= q {
		c -= q
	}
	return c
}

// SubMod returns a-b mod q for a, b < q.
func SubMod(a, b, q uint64) uint64 {
	c := a - b
	if a < b {
		c += q
	}
	return c
}

// NegMod returns -a mod q for a < q.
func NegMod(a, q uint64) uint64 {
	if a == 0 {
		return 0
	}
	return q - a
}

// MulMod returns a*b mod q using 128-bit division. It is the slow, always
// correct path; hot loops use Barrett or Shoup forms instead.
func MulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi%q, lo, q)
	return r
}

// MulModBarrett returns a*b mod q using the precomputed Barrett constant.
// Inputs need not be fully reduced as long as the 128-bit product a*b is
// below q*2^64.
func (m Modulus) MulModBarrett(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.Reduce128(hi, lo)
}

// Reduce128 reduces the 128-bit value hi*2^64+lo modulo q. The value must be
// below q*2^64.
func (m Modulus) Reduce128(hi, lo uint64) uint64 {
	// Estimate quotient: qhat = floor(x * floor(2^128/q) / 2^128).
	// x = hi*2^64 + lo.
	mh1, _ := bits.Mul64(lo, m.BarrettLo)
	mh2, ml2 := bits.Mul64(lo, m.BarrettHi)
	mh3, ml3 := bits.Mul64(hi, m.BarrettLo)
	_, hl := bits.Mul64(hi, m.BarrettHi)

	// Bits 64..127 of the running sum contribute only their carry into the
	// quotient words; the sum itself is discarded.
	carry := uint64(0)
	s, c := bits.Add64(mh1, ml2, 0)
	carry += c
	_, c = bits.Add64(s, ml3, 0)
	carry += c

	// r = x - qhat*q. Since r < 2q fits in 64 bits we can work mod 2^64, so
	// only the low quotient word qlo is needed (the high word hh + carries
	// vanishes under the wraparound of the low product).
	qlo, _ := bits.Add64(mh2, mh3, carry)
	qlo, _ = bits.Add64(qlo, hl, 0)
	r := lo - qlo*m.Q
	for r >= m.Q {
		r -= m.Q
	}
	return r
}

// Reduce128Lazy is Reduce128 with the correction loop replaced by a single
// conditional subtraction of 2q, returning a lazy residue in [0, 2q). The
// quotient estimate can be short by up to two (one from flooring the true
// quotient, one from the discarded low partial products), so the raw
// remainder lies in [0, 3q); folding the 2q case down keeps every lazy
// accumulator within the 4q < 2^64 transient budget. The input must be
// below q*2^64.
func (m Modulus) Reduce128Lazy(hi, lo uint64) uint64 {
	mh1, _ := bits.Mul64(lo, m.BarrettLo)
	mh2, ml2 := bits.Mul64(lo, m.BarrettHi)
	mh3, ml3 := bits.Mul64(hi, m.BarrettLo)
	_, hl := bits.Mul64(hi, m.BarrettHi)

	carry := uint64(0)
	s, c := bits.Add64(mh1, ml2, 0)
	carry += c
	_, c = bits.Add64(s, ml3, 0)
	carry += c

	qlo, _ := bits.Add64(mh2, mh3, carry)
	qlo, _ = bits.Add64(qlo, hl, 0)
	r := lo - qlo*m.Q
	if twoQ := m.Q << 1; r >= twoQ {
		r -= twoQ
	}
	return r
}

// Reduce64 reduces the single-word value a modulo q using the Barrett
// constant (multiplies only, no hardware division). a may be any uint64.
func (m Modulus) Reduce64(a uint64) uint64 {
	return m.Reduce128(0, a)
}

// SignedWord is the integer ±Mag·2^Shift, the form the integer part of a
// finite float64 takes: how CKKS coefficients reach residue rows without math/big.
type SignedWord struct {
	Mag   uint64
	Shift uint16
	Neg   bool
}

// ReduceSignedRow sets out[j] = w[j] mod q, canonical in [0, q): at most one
// Barrett reduction per word, plus a multiply by 2^Shift mod q when Shift > 0.
func (m Modulus) ReduceSignedRow(out []uint64, w []SignedWord) {
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

// MulAddRowLazy is the fused Barrett multiply-accumulate for operand pairs
// without Shoup tables (both sides variable, e.g. digit × switching-key
// rows): acc[j] += a[j]*b[j] for whole rows, with every acc element lazy in
// [0, 2q) on entry and on return; each product a[j]*b[j] must be below
// q*2^64, so the transient sum is < 4q < 2^64. The multiply stays inlined
// here, so each element costs a single Barrett-reduction call. It is the
// inner kernel of the keyswitch digit inner product; close the window with
// ReduceFinalVec.
func (m Modulus) MulAddRowLazy(acc, a, b []uint64) {
	twoQ := m.Q << 1
	a = a[:len(acc)]
	b = b[:len(acc)]
	for j := range acc {
		hi, lo := bits.Mul64(a[j], b[j])
		c := acc[j] + m.Reduce128Lazy(hi, lo)
		if c >= twoQ {
			c -= twoQ
		}
		acc[j] = c
	}
}

// MulAddRowLazyGather is MulAddRowLazy with an index gather fused into the
// left operand: acc[j] += a[perm[j]]*b[j], with acc lazy in [0, 2q) on entry
// and on return. perm must be a permutation of [0, len(acc)). This fuses an
// NTT-domain automorphism (a pure index permutation) into the keyswitch digit
// inner product, so hoisted rotations never materialize the permuted digit
// rows. Close the window with ReduceFinalVec.
func (m Modulus) MulAddRowLazyGather(acc, a, b []uint64, perm []int) {
	twoQ := m.Q << 1
	b = b[:len(acc)]
	perm = perm[:len(acc)]
	for j := range acc {
		hi, lo := bits.Mul64(a[perm[j]], b[j])
		c := acc[j] + m.Reduce128Lazy(hi, lo)
		if c >= twoQ {
			c -= twoQ
		}
		acc[j] = c
	}
}

// MulAddShoupRowLazy is the fused Shoup multiply-accumulate for one constant
// multiplier: acc[j] += a[j]*w with w < q, wShoup = ShoupPrecomp(w, q), acc
// lazy in [0, 2q) on entry and on return. a may hold arbitrary uint64 values
// (the Shoup estimate tolerates lazy inputs).
func (m Modulus) MulAddShoupRowLazy(acc, a []uint64, w, wShoup uint64) {
	q := m.Q
	twoQ := q << 1
	a = a[:len(acc)]
	for j := range acc {
		hi, _ := bits.Mul64(a[j], wShoup)
		c := acc[j] + a[j]*w - hi*q // < 4q, within the uint64 budget
		if c >= twoQ {
			c -= twoQ
		}
		acc[j] = c
	}
}

// MulAddShoupRowLazyGather is MulAddShoupRowLazy with an index gather fused
// into the source row: acc[j] += a[perm[j]]*w under the same contract. It
// folds P·τ_k(c0) into an extended-basis keyswitch accumulator without
// materializing the rotated polynomial.
func (m Modulus) MulAddShoupRowLazyGather(acc, a []uint64, w, wShoup uint64, perm []int) {
	q := m.Q
	twoQ := q << 1
	perm = perm[:len(acc)]
	for j := range acc {
		v := a[perm[j]]
		hi, _ := bits.Mul64(v, wShoup)
		c := acc[j] + v*w - hi*q
		if c >= twoQ {
			c -= twoQ
		}
		acc[j] = c
	}
}

// AddRowLazy adds b into acc row-wide under the lazy contract:
// acc[j], b[j] ∈ [0, 2q) in, acc[j] ∈ [0, 2q) out. It is the fold step that
// merges extended-basis keyswitch accumulators before the deferred ModDown.
func (m Modulus) AddRowLazy(acc, b []uint64) {
	twoQ := m.Q << 1
	b = b[:len(acc)]
	for j := range acc {
		c := acc[j] + b[j]
		if c >= twoQ {
			c -= twoQ
		}
		acc[j] = c
	}
}

// ShoupPrecomp returns floor(w * 2^64 / q), the Shoup multiplier for the
// constant w < q.
func ShoupPrecomp(w, q uint64) uint64 {
	s, _ := bits.Div64(w, 0, q)
	return s
}

// MulModShoup returns the canonical a*w mod q where w < q and
// wShoup = ShoupPrecomp(w, q). a may be any uint64 (lazy inputs allowed):
// the quotient estimate floor(a*wShoup / 2^64) is short by at most one, so
// the raw remainder lies in [0, 2q) and one conditional subtraction
// canonicalizes it.
func MulModShoup(a, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	r := a*w - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// Lazy-bound arithmetic.
//
// The helpers below operate on "lazy" residues: values congruent to the
// canonical representative mod q but allowed to float in [0, 2q). Skipping
// the final conditional subtraction halves the correction work in tight
// kernels (Harvey's lazy butterflies, fused multiply-accumulate chains);
// the q < 2^62 package contract guarantees that even a transient sum of
// four residues (< 4q) cannot overflow a uint64. Every lazy window must end
// with a ReduceFinalVec sweep (or feed the NTT kernels, which fold the sweep
// into their last pass) before the values become externally visible.

// ReduceFinalVec canonicalizes a whole row of lazy residues in place:
// every element must be in [0, 2q) on entry and is in [0, q) on return.
func ReduceFinalVec(a []uint64, q uint64) {
	for i, v := range a {
		// Unconditional store so the correction compiles to a branchless
		// conditional move: residues are effectively random, and a 50/50
		// data-dependent branch would dominate the sweep.
		if v >= q {
			v -= q
		}
		a[i] = v
	}
}

// MulModShoupLazy is MulModShoup without the final correction: a may be any
// uint64 and the result is a lazy residue in [0, 2q). This is the butterfly
// multiplier of the lazy NTT kernels.
func MulModShoupLazy(a, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	return a*w - hi*q
}

// PowMod returns a^e mod q.
func PowMod(a, e, q uint64) uint64 {
	r := uint64(1 % q)
	base := a % q
	for e > 0 {
		if e&1 == 1 {
			r = MulMod(r, base, q)
		}
		base = MulMod(base, base, q)
		e >>= 1
	}
	return r
}

// InvMod returns the multiplicative inverse of a modulo the prime q.
// It panics if a is zero.
func InvMod(a, q uint64) uint64 {
	if a%q == 0 {
		panic("ring: inverse of zero")
	}
	return PowMod(a, q-2, q)
}
