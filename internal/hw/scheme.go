// Package hw models the Hydra FPGA accelerator card and its baselines at the
// level the scale-out study needs: each CKKS operation is decomposed into
// invocations of the four basic compute units (NTT, MA, MM, Automorphism),
// costed with a roofline over compute throughput and HBM traffic, and tagged
// with per-unit energies. Card profiles for Hydra, FAB and Poseidon share the
// machinery and differ in clock, lanes, memory behaviour and key-switch
// decomposition, reproducing the single-card ordering of Table II.
package hw

import "fmt"

// SchemeParams fixes the CKKS parameters the accelerator runs. The paper uses
// SHARP's parameters: N = 2^16, log(PQ) = 1692, logQ = 1260.
type SchemeParams struct {
	LogN          int // ring degree exponent
	MaxLimbs      int // RNS limbs of Q at the top level
	SpecialLimbs  int // limbs of the key-switching modulus P
	Dnum          int // key-switch decomposition number (digits)
	LimbBits      int // bits per limb modulus
	BootDepth     int // multiplicative depth consumed per DFT level in C2S/S2C
	FreshLimbs    int // limbs immediately after bootstrapping
	EffectiveLimb int // average limb count charged for steady-state inference ops
}

// PaperScheme returns the parameter set of the paper's evaluation
// (Section V-A): N = 2^16 with logQ = 1260 (28 × 45-bit limbs) and
// log(PQ) = 1692 (432 bits of P ≈ 10 limbs, dnum = 3).
func PaperScheme() SchemeParams {
	return SchemeParams{
		LogN:          16,
		MaxLimbs:      28,
		SpecialLimbs:  10,
		Dnum:          3,
		LimbBits:      45,
		BootDepth:     3,
		FreshLimbs:    22,
		EffectiveLimb: 18,
	}
}

// N returns the ring degree.
func (s SchemeParams) N() int { return 1 << s.LogN }

// Slots returns the slot count N/2.
func (s SchemeParams) Slots() int { return s.N() / 2 }

// CiphertextBytes returns the size of a degree-1 ciphertext at the given limb
// count (two polynomials of N 8-byte words per limb). At the paper's
// parameters a steady-state ciphertext is ≈ 19 MB, matching the "more than
// 20 MB" the paper cites for fresh ciphertexts.
func (s SchemeParams) CiphertextBytes(limbs int) int {
	return 2 * limbs * s.N() * 8
}

// Validate checks internal consistency.
func (s SchemeParams) Validate() error {
	if s.LogN < 10 || s.LogN > 17 {
		return fmt.Errorf("hw: LogN %d out of range [10,17]", s.LogN)
	}
	if s.MaxLimbs <= 0 || s.SpecialLimbs <= 0 || s.Dnum <= 0 {
		return fmt.Errorf("hw: limb/dnum fields must be positive")
	}
	if s.EffectiveLimb <= 0 || s.EffectiveLimb > s.MaxLimbs {
		return fmt.Errorf("hw: EffectiveLimb %d out of range (0,%d]", s.EffectiveLimb, s.MaxLimbs)
	}
	return nil
}
