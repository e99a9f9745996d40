// Package ckks implements a functional RNS-CKKS homomorphic encryption
// scheme: approximate arithmetic over encrypted complex vectors with
// homomorphic addition, plaintext and ciphertext multiplication, rescaling,
// key switching, and slot rotations.
//
// This is the arithmetic substrate that the Hydra accelerator model executes:
// every operation the scheduler dispatches (HAdd, PMult, CMult, Rotation,
// Rescale, KeySwitch) has a real implementation here, so the task mappings in
// internal/mapping can be validated functionally at laptop-scale parameters
// while the performance model in internal/hw uses the paper's N = 2^16
// parameters.
package ckks

import (
	"fmt"

	"hydra/internal/ring"
)

// Parameters describes a CKKS parameter set.
type Parameters struct {
	logN     int
	logSlots int
	q        []uint64 // ciphertext modulus chain q_0 … q_L
	p        []uint64 // special (key-switching) primes p_0 … p_{α-1}; P is their product
	scale    float64
	sigma    float64

	ringQP *ring.Ring // ring over q_0 … q_L, p_0 … p_{α-1}

	pModQ, pModQShoup []uint64 // P mod q_i: the key's gadget factor, and the lift into the extended basis

	// rescaleInv[l][j], j < l, is q_l^-1 mod q_j, the divisor of a rescale
	// from level l (with its Shoup constant): L(L+1)/2 pairs, 3.4 KB at 21
	// limbs.
	rescaleInv, rescaleInvShoup [][]uint64
}

// dnum is the paper's keyswitch digit count (Section V-A: N = 2^16,
// log PQ = 1692, dnum = 3): the chain splits into dnum digits of
// α = ⌈(L+1)/dnum⌉ limbs, and α special primes make P cover a digit.
const dnum = 3

// SpecialPrimes is α = ⌈(L+1)/dnum⌉, the special-prime count NewParameters
// draws for a chain whose top level is L: the rows an extended polynomial
// carries beyond its Q rows.
func SpecialPrimes(maxLevel int) int { return (maxLevel + dnum) / dnum }

// ParametersLiteral is the user-facing description from which Parameters are
// built. LogQ lists the bit sizes of the ciphertext moduli; LogP the bit size
// of each special prime used for key switching, of which NewParameters draws
// α = ⌈len(LogQ)/3⌉.
type ParametersLiteral struct {
	LogN     int
	LogSlots int // defaults to LogN-1
	LogQ     []int
	LogP     int
	Scale    float64 // defaults to 2^40
	Sigma    float64 // defaults to 3.2
}

// NewParameters validates the literal and precomputes the ring.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 3 || lit.LogN > 17 {
		return nil, fmt.Errorf("ckks: LogN %d out of supported range [3,17]", lit.LogN)
	}
	if lit.LogSlots == 0 {
		lit.LogSlots = lit.LogN - 1
	}
	if lit.LogSlots < 0 || lit.LogSlots > lit.LogN-1 {
		return nil, fmt.Errorf("ckks: LogSlots %d out of range [0,%d]", lit.LogSlots, lit.LogN-1)
	}
	if len(lit.LogQ) == 0 {
		return nil, fmt.Errorf("ckks: need at least one ciphertext modulus")
	}
	if lit.LogP == 0 {
		return nil, fmt.Errorf("ckks: need a special modulus (LogP)")
	}
	// P ≥ every digit is the keyswitch noise bound: the digit·error products
	// are divided by P, so a special prime narrower than a chain prime would
	// leave noise of the order of their ratio.
	for _, lq := range append([]int{lit.LogP}, lit.LogQ...) {
		if lq < 4 || lq > 61 {
			return nil, fmt.Errorf("ckks: modulus size %d bits out of range [4,61]", lq)
		}
		if lq > lit.LogP {
			return nil, fmt.Errorf("ckks: LogP %d narrower than a %d-bit ciphertext modulus", lit.LogP, lq)
		}
	}
	if lit.Scale == 0 {
		lit.Scale = 1 << 40
	}
	if lit.Sigma == 0 {
		lit.Sigma = 3.2
	}
	n := 1 << lit.LogN

	// Group requested bit sizes so equal sizes draw distinct primes.
	counts := map[int]int{}
	for _, lq := range lit.LogQ {
		counts[lq]++
	}
	alpha := SpecialPrimes(len(lit.LogQ) - 1)
	counts[lit.LogP] += alpha
	pools := map[int][]uint64{}
	for sz, c := range counts {
		pools[sz] = ring.GenerateNTTPrimes(sz, n, c)
	}
	next := func(sz int) uint64 {
		v := pools[sz][0]
		pools[sz] = pools[sz][1:]
		return v
	}
	q := make([]uint64, len(lit.LogQ))
	for i, lq := range lit.LogQ {
		q[i] = next(lq)
	}
	p := make([]uint64, alpha)
	for k := range p {
		p[k] = next(lit.LogP)
	}

	moduli := append(append([]uint64(nil), q...), p...)
	rng, err := ring.NewRing(n, moduli)
	if err != nil {
		return nil, err
	}
	params := &Parameters{
		logN:     lit.LogN,
		logSlots: lit.LogSlots,
		q:        q,
		p:        p,
		scale:    lit.Scale,
		sigma:    lit.Sigma,
		ringQP:   rng,
	}
	for _, qi := range q {
		pq := uint64(1)
		for _, pk := range p {
			pq = ring.MulMod(pq, ring.Reduce(pk, qi), qi)
		}
		params.pModQ = append(params.pModQ, pq)
		params.pModQShoup = append(params.pModQShoup, ring.ShoupPrecomp(pq, qi))
	}
	params.rescaleInv = make([][]uint64, len(q))
	params.rescaleInvShoup = make([][]uint64, len(q))
	for l, ql := range q {
		for _, qj := range q[:l] {
			inv := ring.InvMod(ring.Reduce(ql, qj), qj)
			params.rescaleInv[l] = append(params.rescaleInv[l], inv)
			params.rescaleInvShoup[l] = append(params.rescaleInvShoup[l], ring.ShoupPrecomp(inv, qj))
		}
	}
	return params, nil
}

// TestParameters returns a small parameter set suitable for unit tests:
// N = 2^(logN), the given number of 45-bit levels plus a 50-bit base modulus
// and 50-bit special primes, scale 2^45 (matching the level moduli so the
// scale stays stable across rescaling).
func TestParameters(logN, levels int) *Parameters {
	logQ := make([]int, levels+1)
	logQ[0] = 50
	for i := 1; i <= levels; i++ {
		logQ[i] = 45
	}
	p, err := NewParameters(ParametersLiteral{
		LogN:  logN,
		LogQ:  logQ,
		LogP:  50,
		Scale: 1 << 45,
	})
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << p.logN }

// Slots returns the number of plaintext slots.
func (p *Parameters) Slots() int { return 1 << p.logSlots }

// MaxLevel returns the index of the highest ciphertext level.
func (p *Parameters) MaxLevel() int { return len(p.q) - 1 }

// Q returns the ciphertext modulus chain.
func (p *Parameters) Q() []uint64 { return p.q }

// DefaultScale returns the default encoding scale Δ.
func (p *Parameters) DefaultScale() float64 { return p.scale }

// Sigma returns the error distribution's standard deviation.
func (p *Parameters) Sigma() float64 { return p.sigma }

// RingQP returns the ring over all moduli (ciphertext chain plus special).
func (p *Parameters) RingQP() *ring.Ring { return p.ringQP }

// SpecialIndex is the residue index of the first special prime in RingQP.
func (p *Parameters) SpecialIndex() int { return len(p.q) }

// ExtRows is the row count of a level-lvl polynomial in the extended basis:
// q_0..q_lvl and every special prime.
func (p *Parameters) ExtRows(lvl int) int { return lvl + 1 + len(p.p) }

// extRow returns the ring table index of row jj of a level-lvl extended
// polynomial: rows 0..lvl are q_0..q_lvl, the rest the special primes.
func (p *Parameters) extRow(jj, lvl int) int {
	if jj <= lvl {
		return jj
	}
	return len(p.q) + jj - lvl - 1
}

// digits is the number of keyswitch digits with a limb active at level lvl,
// ⌈(lvl+1)/α⌉; digit returns the limbs [lo, hi) of digit d active there.
func (p *Parameters) digits(lvl int) int { return lvl/len(p.p) + 1 }

func (p *Parameters) digit(d, lvl int) (lo, hi int) {
	alpha := len(p.p)
	return d * alpha, min((d+1)*alpha, lvl+1)
}
