package ckks

import (
	"fmt"

	"hydra/internal/ring"
)

// Ciphertext is a degree-1 RLWE ciphertext (c0, c1) in the NTT domain, with
// its current scale. Decryption computes c0 + c1·s.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Scale  float64
}

// Level returns the ciphertext level.
func (ct *Ciphertext) Level() int { return ct.C0.Level() }

// CopyNew returns a deep copy.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	return &Ciphertext{C0: ct.C0.CopyNew(), C1: ct.C1.CopyNew(), Scale: ct.Scale}
}

// CopyAtLevel returns a deep copy of the rows of both components up to level
// (no rounding; the scale is unchanged): a level drop that copies only the
// rows it keeps.
func (ct *Ciphertext) CopyAtLevel(level int) *Ciphertext {
	checkDropTo(level, ct.Level())
	return &Ciphertext{C0: atLevel(ct.C0, level).CopyNew(), C1: atLevel(ct.C1, level).CopyNew(), Scale: ct.Scale}
}

// ViewAtLevel returns ct dropped to level (no rounding; the scale is
// unchanged) as a view: its components share ct's rows up to level, and
// nothing is copied.
func (ct *Ciphertext) ViewAtLevel(level int) *Ciphertext {
	checkDropTo(level, ct.Level())
	return &Ciphertext{C0: atLevel(ct.C0, level), C1: atLevel(ct.C1, level), Scale: ct.Scale}
}

// checkDropTo panics unless level is one a level-from ciphertext can drop to.
func checkDropTo(level, from int) {
	if level < 0 || level > from {
		panic(fmt.Sprintf("ckks: cannot drop a level-%d ciphertext to level %d", from, level))
	}
}

// Equal reports whether ct and other are bitwise identical: same scale and
// identical residues in both components. This is deliberately strict — it is
// the predicate differential tests use to pin optimized execution paths
// bit-exact against their reference counterparts.
func (ct *Ciphertext) Equal(other *Ciphertext) bool {
	if other == nil || ct.Scale != other.Scale {
		return false
	}
	return ct.C0.Equal(other.C0) && ct.C1.Equal(other.C1)
}

// DropLevel discards the top n moduli of the ciphertext (no rounding; the
// scale is unchanged). Used to align levels before binary operations.
func (ct *Ciphertext) DropLevel(n int) {
	for i := 0; i < n; i++ {
		ct.C0.DropLevel()
		ct.C1.DropLevel()
	}
}

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sampler *ring.Sampler
}

// NewEncryptor returns an encryptor with deterministic randomness from seed.
func NewEncryptor(params *Parameters, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSampler(params.RingQP(), seed)}
}

// atLevel returns a view of p restricted to the first level+1 residues.
func atLevel(p *ring.Poly, level int) *ring.Poly {
	return &ring.Poly{Coeffs: p.Coeffs[:level+1], IsNTT: p.IsNTT}
}

// Encrypt produces a fresh encryption of pt at the plaintext's level. The
// sampler draws one value per coefficient whatever the row count, so v, e0
// and e1 are sampled and transformed over the level's rows only — the errors
// straight into the components they end up in — and the ciphertext is the one
// a full-chain sample sliced to the level gives.
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	r := e.params.RingQP()
	lvl := pt.Level()

	v := e.params.pooledPoly(lvl)
	e.sampler.Ternary(v)
	r.NTT(v)
	c0 := r.NewPoly(lvl)
	e.sampler.Gaussian(c0, e.params.Sigma())
	r.NTT(c0)
	c1 := r.NewPoly(lvl)
	e.sampler.Gaussian(c1, e.params.Sigma())
	r.NTT(c1)

	r.MulCoeffsAdd(v, atLevel(e.pk.B, lvl), c0)
	r.Add(c0, pt.Value, c0)
	r.MulCoeffsAdd(v, atLevel(e.pk.A, lvl), c1)
	e.params.releasePolys(v)
	return &Ciphertext{C0: c0, C1: c1, Scale: pt.Scale}
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt returns the plaintext underlying ct (still scaled and noisy).
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	r := d.params.RingQP()
	lvl := ct.Level()
	m := r.NewPoly(lvl)
	r.MulCoeffs(ct.C1, atLevel(d.sk.Value, lvl), m)
	r.Add(m, ct.C0, m)
	return &Plaintext{Value: m, Scale: ct.Scale}
}
