package ckks

import (
	"hydra/internal/ring"
)

// SecretKey holds the secret polynomial s (ternary), stored in the NTT domain
// over the full modulus chain QP.
type SecretKey struct {
	Value *ring.Poly
}

// PublicKey is the standard RLWE pair (b, a) = (-a·s + e, a) over QP,
// NTT domain.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts a polynomial decryptable under sIn so that it is
// decryptable under sOut. One digit per group of α consecutive ciphertext
// moduli (α the number of special primes): digit d is the pair (b_d, a_d) over
// QP with b_d = -a_d·sOut + e_d + P̃_d·sIn, where P̃_d is P at the residues of
// the digit's own moduli and 0 elsewhere — P·(Q/Q_d)·[(Q/Q_d)^-1]_{Q_d} at
// every level, whichever of the digit's moduli are still active.
type SwitchingKey struct {
	DigitsB []*ring.Poly
	DigitsA []*ring.Poly
}

// RelinearizationKey switches s² → s after ciphertext multiplication.
type RelinearizationKey struct {
	Key *SwitchingKey
}

// RotationKeySet maps Galois elements to their switching keys.
type RotationKeySet struct {
	Keys map[uint64]*SwitchingKey
}

// KeyGenerator derives all key material from a secret key.
type KeyGenerator struct {
	params  *Parameters
	sampler *ring.Sampler
}

// NewKeyGenerator returns a key generator with deterministic randomness
// derived from seed.
func NewKeyGenerator(params *Parameters, seed int64) *KeyGenerator {
	return &KeyGenerator{
		params:  params,
		sampler: ring.NewSampler(params.RingQP(), seed),
	}
}

// GenSecretKey samples a fresh ternary secret key.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	r := kg.params.RingQP()
	s := r.NewPoly(r.MaxLevel())
	kg.sampler.Ternary(s)
	r.NTT(s)
	return &SecretKey{Value: s}
}

// GenSecretKeySparse samples a ternary secret of exact Hamming weight h.
// Bootstrapping uses sparse secrets so the integer overflow polynomial I(X)
// introduced by the modulus raise stays small (|I| = O(√h) w.h.p.).
func (kg *KeyGenerator) GenSecretKeySparse(h int) *SecretKey {
	r := kg.params.RingQP()
	s := r.NewPoly(r.MaxLevel())
	kg.sampler.TernarySparse(s, h)
	r.NTT(s)
	return &SecretKey{Value: s}
}

// GenPublicKey derives the public encryption key from sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	r := kg.params.RingQP()
	lvl := r.MaxLevel()
	a := r.NewPoly(lvl)
	kg.sampler.Uniform(a)
	r.NTT(a)
	e := r.NewPoly(lvl)
	kg.sampler.Gaussian(e, kg.params.Sigma())
	r.NTT(e)

	b := r.NewPoly(lvl)
	r.MulCoeffs(a, sk.Value, b)
	r.Neg(b, b)
	r.Add(b, e, b)
	return &PublicKey{B: b, A: a}
}

// GenSwitchingKey builds a key switching sIn → sOut (both NTT, full level).
func (kg *KeyGenerator) GenSwitchingKey(sIn, sOut *ring.Poly) *SwitchingKey {
	r := kg.params.RingQP()
	lvl := r.MaxLevel()
	top := kg.params.MaxLevel()

	swk := &SwitchingKey{}
	for d := 0; d < kg.params.digits(top); d++ {
		a := r.NewPoly(lvl)
		kg.sampler.Uniform(a)
		r.NTT(a)
		e := r.NewPoly(lvl)
		kg.sampler.Gaussian(e, kg.params.Sigma())
		r.NTT(e)

		b := r.NewPoly(lvl)
		r.MulCoeffs(a, sOut, b)
		r.Neg(b, b)
		r.Add(b, e, b)
		// Add P̃_d·sIn: (P mod q_i)·sIn on the digit's own residues, zero on
		// every other.
		lo, hi := kg.params.digit(d, top)
		for i := lo; i < hi; i++ {
			r.Tables[i].Mod.MulAddShoupRowLazy(b.Coeffs[i], sIn.Coeffs[i], kg.params.pModQ[i], kg.params.pModQShoup[i])
			ring.ReduceFinalVec(b.Coeffs[i], r.Moduli[i])
		}
		swk.DigitsB = append(swk.DigitsB, b)
		swk.DigitsA = append(swk.DigitsA, a)
	}
	return swk
}

// GenRelinearizationKey builds the s² → s key.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	r := kg.params.RingQP()
	s2 := r.NewPoly(r.MaxLevel())
	r.MulCoeffs(sk.Value, sk.Value, s2)
	return &RelinearizationKey{Key: kg.GenSwitchingKey(s2, sk.Value)}
}

// GenRotationKeys builds switching keys for the given slot rotations
// (positive = left rotation) and, if conjugate is set, for conjugation.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, rotations []int, conjugate bool) *RotationKeySet {
	set := &RotationKeySet{Keys: map[uint64]*SwitchingKey{}}
	n := kg.params.N()
	for _, rot := range rotations {
		k := ring.GaloisElementForRotation(n, rot)
		if _, ok := set.Keys[k]; ok {
			continue
		}
		set.Keys[k] = kg.genGaloisKey(sk, k)
	}
	if conjugate {
		k := ring.GaloisElementConjugate(n)
		set.Keys[k] = kg.genGaloisKey(sk, k)
	}
	return set
}

func (kg *KeyGenerator) genGaloisKey(sk *SecretKey, k uint64) *SwitchingKey {
	r := kg.params.RingQP()
	perm := ring.AutomorphismNTTIndex(r.N, k)
	sRot := r.NewPoly(r.MaxLevel())
	r.AutomorphismNTT(sk.Value, perm, sRot)
	return kg.GenSwitchingKey(sRot, sk.Value)
}
