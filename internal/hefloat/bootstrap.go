package hefloat

import (
	"fmt"

	"hydra/internal/ckks"
)

// Bootstrapper executes a BootstrapDesc on an evaluator: functional CKKS
// bootstrapping — the procedure whose multi-card mapping Section III-B of the
// paper designs. A level-0 ciphertext is refreshed to a high level through the
// paper's Fig. 3(b) pipeline:
//
//	ModRaise:    re-express the ciphertext at the top modulus; it now
//	             decrypts to m + q0·I(X) for a small integer polynomial I.
//	CoeffToSlot: move the coefficients of m + q0·I into the slots with two
//	             homomorphic linear transforms (the DFT of Fig. 3(c)),
//	             scaled by 1/q0 so slots hold u = m/q0 + I.
//	EvaExp+DAF:  evaluate sin(2πu)/(2π) ≈ u − I = m/q0 with a small-angle
//	             Taylor polynomial followed by double-angle iterations.
//	SlotToCoeff: move the cleaned values back to coefficients, folding the
//	             q0/(2π) correction into the transform.
type Bootstrapper struct {
	desc *BootstrapDesc
	enc  *ckks.Encoder
	eval *ckks.Evaluator
}

// NewBootstrapper builds the pipeline's description for params and binds it
// to the evaluator (which must hold the relinearization key, the conjugation
// key and BootstrapRotations' rotation keys) and the encoder its plans encode
// with.
func NewBootstrapper(params *ckks.Parameters, enc *ckks.Encoder, eval *ckks.Evaluator, opts BootstrapperOptions) (*Bootstrapper, error) {
	if enc == nil || eval == nil {
		return nil, fmt.Errorf("hefloat: a bootstrapper needs an encoder and an evaluator; NewBootstrapDesc is the keyless description")
	}
	desc, err := NewBootstrapDesc(params, opts)
	if err != nil {
		return nil, err
	}
	// Precompile the four CoeffToSlot plans at the ModRaise level so even the
	// first Bootstrap call encodes nothing for C2S. The SlotToCoeff plans
	// compile on first use (their input level depends on the sine-evaluation
	// depth) and are cached thereafter, so steady-state Bootstrap calls
	// encode no diagonal at all.
	top := len(params.Q()) - 1
	compile := func(lt *LinearTransform) func() error {
		return func() (err error) {
			_, err = lt.planFor(enc, desc.BabySteps, top, params.DefaultScale())
			return err
		}
	}
	if err := runConcurrent(compile(desc.P), compile(desc.Q), compile(desc.R), compile(desc.S)); err != nil {
		return nil, err
	}
	return &Bootstrapper{desc: desc, enc: enc, eval: eval}, nil
}

// applyDFT evaluates one of the six bootstrap transforms.
func (bt *Bootstrapper) applyDFT(lt *LinearTransform, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return lt.EvaluateBSGS(bt.eval, bt.enc, ct, bt.desc.BabySteps)
}

// CoeffToSlotTransforms exposes the four CoeffToSlot transforms (with the
// Δ/q0 factor folded in), in the pairing Bootstrap uses: u0 = P·z + Q·conj(z),
// u1 = R·z + S·conj(z).
func (bt *Bootstrapper) CoeffToSlotTransforms() (p, q, r, s *LinearTransform) {
	return bt.desc.P, bt.desc.Q, bt.desc.R, bt.desc.S
}

// SlotToCoeffTransforms exposes the two SlotToCoeff transforms (with the
// q0/(2πΔ) factor folded in): out = A·w0 + B·w1.
func (bt *Bootstrapper) SlotToCoeffTransforms() (a, b *LinearTransform) {
	return bt.desc.A, bt.desc.B
}

// BabySteps reports the BSGS baby-step count the six transforms run with.
func (bt *Bootstrapper) BabySteps() int { return bt.desc.BabySteps }

// SineSchedule reports the sine-evaluation schedule: the Taylor degree of the
// small-angle pair and the number of double-angle iterations. The pre-scale
// angle is θ = 2π/2^dafIters.
func (bt *Bootstrapper) SineSchedule() (taylorDeg, dafIters int) {
	return bt.desc.TaylorDeg, bt.desc.DAFIters
}

// Bootstrap refreshes a level-0 ciphertext to a high level.
func (bt *Bootstrapper) Bootstrap(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if ct.Level() != 0 {
		return nil, fmt.Errorf("hefloat: bootstrap expects a level-0 ciphertext, got level %d", ct.Level())
	}
	eval := bt.eval

	// ModRaise.
	raised := eval.RaiseModulus(ct)

	// CoeffToSlot: u0 holds the first coefficient half over q0, u1 the second.
	// The four transforms (and later the two sine branches and the two
	// SlotToCoeff transforms) are independent, mirroring the multi-card C2S
	// mapping of Section III-B: they run concurrently on the shared pool.
	conj := eval.Conjugate(raised)
	var pz, qz, rz, sz *ckks.Ciphertext
	err := runConcurrent(
		func() (err error) { pz, err = bt.applyDFT(bt.desc.P, raised); return },
		func() (err error) { qz, err = bt.applyDFT(bt.desc.Q, conj); return },
		func() (err error) { rz, err = bt.applyDFT(bt.desc.R, raised); return },
		func() (err error) { sz, err = bt.applyDFT(bt.desc.S, conj); return },
	)
	if err != nil {
		return nil, err
	}
	u0 := eval.Add(pz, qz)
	u1 := eval.Add(rz, sz)

	// EvaExp + double-angle: w ≈ sin(2π u).
	var w0, w1 *ckks.Ciphertext
	err = runConcurrent(
		func() (err error) { w0, err = bt.evalSine(u0); return },
		func() (err error) { w1, err = bt.evalSine(u1); return },
	)
	if err != nil {
		return nil, err
	}

	// SlotToCoeff with the q0/(2π) correction folded in.
	var z0, z1 *ckks.Ciphertext
	err = runConcurrent(
		func() (err error) { z0, err = bt.applyDFT(bt.desc.A, w0); return },
		func() (err error) { z1, err = bt.applyDFT(bt.desc.B, w1); return },
	)
	if err != nil {
		return nil, err
	}
	// The pipeline's folded constants are exact, so the tracked scale is
	// correct by construction.
	return AddAligned(eval, z0, z1), nil
}

// evalSine evaluates sin(2πu) via the description's small-angle Taylor pair
// and DAFIters double-angle iterations.
func (bt *Bootstrapper) evalSine(u *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	// Pre-scale the argument (y = θ·u) so the Taylor coefficients are O(1)
	// and survive fixed-point encoding.
	y := bt.eval.Rescale(bt.eval.MulByConst(u, bt.desc.Theta))
	s, err := EvaluateTree(bt.eval, y, Polynomial{Coeffs: bt.desc.Sin})
	if err != nil {
		return nil, err
	}
	c, err := EvaluateTree(bt.eval, y, Polynomial{Coeffs: bt.desc.Cos})
	if err != nil {
		return nil, err
	}
	for i := 0; i < bt.desc.DAFIters; i++ {
		sc := mulRescale(bt.eval, s, c)
		ss := mulRescale(bt.eval, s, s)
		s = bt.eval.Add(sc, sc) // sin(2x) = 2 sin x cos x
		negss2 := bt.eval.Neg(bt.eval.Add(ss, ss))
		c = bt.eval.AddConst(negss2, 1) // cos(2x) = 1 - 2 sin²x
	}
	return s, nil
}
