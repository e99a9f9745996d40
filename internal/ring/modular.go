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
	// bias is Q·⌈2^62/Q⌉ < 2^63, the multiple of Q that ReduceInt adds to
	// lift a signed word into the unsigned range.
	bias uint64
}

// NewModulus precomputes Barrett constants for q. It panics if q is zero or
// does not fit the q < 2^62 contract.
func NewModulus(q uint64) Modulus {
	if q == 0 || q >= 1<<62 {
		panic("ring: modulus must satisfy 0 < q < 2^62")
	}
	hi, lo := barrettConstant(q)
	return Modulus{Q: q, BarrettHi: hi, BarrettLo: lo, bias: q * ((1<<62 + q - 1) / q)}
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
// conditional subtraction of 2q, returning a lazy residue in [0, 2q) for any
// 128-bit value x = hi*2^64 + lo.
//
// Proof, for q < 2^62. The quotient estimate is short of ⌊x/q⌋ by at most
// two. μ = ⌊2^128/q⌋ > 2^128/q − 1 and x < 2^128, so x·μ/2^128 > x/q − 1,
// and flooring it gives at least ⌊x/q⌋ − 1. The code can lose one more: the
// two carries out of bits 64..127 may sum to 2, and bits.Add64 is specified
// for a carry-in of 0 or 1 only (compiled, it adds 1). The estimate never
// exceeds x/q. So r = x − q̂·q lies in [0, 3q), below 2^64, which makes
// computing r modulo 2^64 exact, and one conditional subtraction of 2q lands
// it in [0, 2q).
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

// ReduceInt returns v mod q, canonical in [0, q), for |v| < 2^62: the
// integer part of a CKKS coefficient reaching its residue row. v plus bias,
// a multiple of q, lies in [0, 2^63 + q); one single-word Barrett step, whose
// quotient ⌊u·⌊2^64/q⌋/2^64⌋ is short by at most one, and one conditional
// subtraction finish it. No branch depends on the data, so a row of mixed
// signs costs what a row of one sign does.
func (m Modulus) ReduceInt(v int64) uint64 {
	u := uint64(v) + m.bias
	hi, _ := bits.Mul64(u, m.BarrettHi) // BarrettHi = ⌊2^64/q⌋
	r := u - hi*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// ReduceIntRow sets out[j] = ReduceInt(v[j]), every |v[j]| < 2^62.
func (m Modulus) ReduceIntRow(out []uint64, v []int64) {
	v = v[:len(out)]
	for j, x := range v {
		out[j] = m.ReduceInt(x)
	}
}

// SignedWord is the integer ±Mag·2^Shift, the form the integer part of a
// finite float64 takes: how the CKKS coefficients ReduceInt does not take
// (|v| ≥ 2^62) reach residue rows without math/big.
type SignedWord struct {
	Mag   uint64
	Shift uint16
	Neg   bool
}

// ReduceSigned returns w mod q, canonical in [0, q): one Barrett reduction,
// a multiply by 2^Shift mod q when Shift > 0, and the sign.
func (m Modulus) ReduceSigned(w SignedWord) uint64 {
	r := m.Reduce64(w.Mag)
	if w.Shift != 0 {
		r = m.MulModBarrett(r, PowMod(2, uint64(w.Shift), m.Q))
	}
	if w.Neg {
		r = NegMod(r, m.Q)
	}
	return r
}

// MulAddRowLazy is the fused Barrett multiply-accumulate for one operand pair
// without Shoup tables (both sides variable): acc[j] += a[j]*b[j] for whole
// rows, with every acc element lazy in [0, 2q) on entry and on return; a[j]
// and b[j] may be any words, and the transient sum is < 4q < 2^64.
// The multiply stays inlined here, so each element costs a single
// Barrett-reduction call. Sums of several products go through the
// wide-accumulator kernels below instead; close the window with ReduceFinalVec.
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

// RowMACFold is the most products the wide-accumulator kernels sum in 128
// bits before their one reduction per output coefficient. Each product pairs
// a lazy operand (< 2q) with a canonical one (< q), and the fold may start
// from a lazy accumulator (< 2q), so F terms sum to at most
// F·(2q−1)(q−1) + 2q − 1 = 16q² − 22q + 7 for F = 8: below 16q² < 2^128
// under the package's q < 2^62 contract. F = 9 gives 18q² − 25q + 8, which
// passes 2^128 as q nears 2^62, so 8 is the widest fold that never carries
// out of the high word.
const RowMACFold = 8

// MulAddRowsLazy is the extended-basis diagonal fold, the MAC datapath of a
// BSGS giant step: for up to RowMACFold terms t it sets
// acc0[j] += Σ_t x0[t][j]·p[t][j] and acc1[j] += Σ_t x1[t][j]·p[t][j] — both
// components of each ciphertext term against the term's plaintext row —
// summing the full 128-bit products and reducing once per output coefficient
// instead of once per product. acc and x rows are lazy in [0, 2q), p rows
// canonical; acc stays lazy on return. Close the window with ReduceFinalVec.
func (m Modulus) MulAddRowsLazy(acc0, acc1 []uint64, x0, x1, p [][]uint64) {
	n := len(p)
	if n > RowMACFold || len(x0) != n || len(x1) != n {
		panic("ring: MulAddRowsLazy takes matching operand lists of at most RowMACFold rows")
	}
	acc1 = acc1[:len(acc0)]
	for j := range acc0 {
		l0, l1 := acc0[j], acc1[j]
		var h0, h1, c uint64
		for t := range n {
			pv := p[t][j]
			hi, lo := bits.Mul64(x0[t][j], pv)
			l0, c = bits.Add64(l0, lo, 0)
			h0 += hi + c
			hi, lo = bits.Mul64(x1[t][j], pv)
			l1, c = bits.Add64(l1, lo, 0)
			h1 += hi + c
		}
		acc0[j] = m.Reduce128Lazy(h0, l0)
		acc1[j] = m.Reduce128Lazy(h1, l1)
	}
}

// InnerProductRows is the keyswitch digit inner product: it sets
// out0[j] = Σ_i d[i][perm[j]]·k0[i][j] and out1[j] = Σ_i d[i][perm[j]]·k1[i][j]
// canonical in [0, q), one digit load serving both key rows and one reduction
// per output coefficient. perm is the NTT-domain automorphism τ_galois
// (AutomorphismNTTIndex), stepped through rather than read from a table and
// fused into the digit reads, so hoisted rotations never materialize permuted
// digit rows; galois = 1 is the identity. len(out0) must be a power of two, d
// rows may be lazy in [0, 2q), k rows must be canonical, and at most
// RowMACFold digits fit one call.
func (m Modulus) InnerProductRows(out0, out1 []uint64, d, k0, k1 [][]uint64, galois uint64) {
	n := len(d)
	if n > RowMACFold || len(k0) != n || len(k1) != n {
		panic("ring: InnerProductRows takes matching operand lists of at most RowMACFold rows")
	}
	q := m.Q
	out1 = out1[:len(out0)]
	src, step := AutomorphismNTTStep(len(out0), galois)
	mask := len(out0) - 1
	for j := range out0 {
		var h0, l0, h1, l1, c uint64
		for i := range n {
			v := d[i][src]
			hi, lo := bits.Mul64(v, k0[i][j])
			l0, c = bits.Add64(l0, lo, 0)
			h0 += hi + c
			hi, lo = bits.Mul64(v, k1[i][j])
			l1, c = bits.Add64(l1, lo, 0)
			h1 += hi + c
		}
		src = (src + step) & mask
		r0, r1 := m.Reduce128Lazy(h0, l0), m.Reduce128Lazy(h1, l1)
		if r0 >= q {
			r0 -= q
		}
		if r1 >= q {
			r1 -= q
		}
		out0[j], out1[j] = r0, r1
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

// MulAddShoupRowLazyGather is MulAddShoupRowLazy with the automorphism
// τ_galois fused into the source row as a stepped gather (see
// InnerProductRows): acc[j] += a[perm[j]]*w under the same contract,
// len(acc) a power of two. It folds P·τ_k(c0) into an extended-basis
// keyswitch accumulator without materializing the rotated polynomial.
func (m Modulus) MulAddShoupRowLazyGather(acc, a []uint64, w, wShoup, galois uint64) {
	q := m.Q
	twoQ := q << 1
	src, step := AutomorphismNTTStep(len(acc), galois)
	mask := len(acc) - 1
	for j := range acc {
		v := a[src]
		src = (src + step) & mask
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
