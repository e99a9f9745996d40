package hefloat

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"hydra/internal/ckks"
	"hydra/internal/ring"
)

// Bootstrapper implements functional CKKS bootstrapping — the procedure
// whose multi-card mapping Section III-B of the paper designs. A level-0
// ciphertext is refreshed to a high level through the paper's Fig. 3(b)
// pipeline:
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
//
// The embedding matrices are obtained by probing this library's own encoder
// and inverting the resulting linear system, so the construction is
// self-validating rather than hand-derived.
type Bootstrapper struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	eval   *ckks.Evaluator

	ltP, ltQ, ltR, ltS *LinearTransform // CoeffToSlot (×Δ/q0)
	ltA, ltB           *LinearTransform // SlotToCoeff (×q0/(2πΔ))
	bs                 int              // BSGS baby steps for the transforms

	K         int // bound on |I| coefficients
	DAFIters  int
	TaylorDeg int
}

// BootstrapperOptions tune the bootstrapper.
type BootstrapperOptions struct {
	K         int // bound on the ModRaise overflow (default 16; needs a sparse secret)
	TaylorDeg int // degree of the small-angle sine polynomial (default 7)
	BabySteps int // BSGS baby steps for the DFT transforms (default ~sqrt(slots))
}

// BootstrapRotations returns the rotation indices the bootstrapper's
// transforms need (generate keys for these plus conjugation).
func BootstrapRotations(params *ckks.Parameters, opts BootstrapperOptions) []int {
	bs := opts.babySteps(params.Slots())
	set := map[int]bool{}
	for j := 1; j < bs; j++ {
		set[j] = true
	}
	for g := bs; g < params.Slots(); g += bs {
		set[g] = true
	}
	rots := make([]int, 0, len(set))
	for r := range set {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	return rots
}

func (o BootstrapperOptions) babySteps(slots int) int {
	if o.BabySteps > 0 {
		return o.BabySteps
	}
	bs := 1
	for bs*bs < slots {
		bs <<= 1
	}
	return bs
}

// NewBootstrapper probes the encoder, inverts the embedding system and
// prepares the four CoeffToSlot and two SlotToCoeff transforms.
func NewBootstrapper(params *ckks.Parameters, enc *ckks.Encoder, eval *ckks.Evaluator, opts BootstrapperOptions) (*Bootstrapper, error) {
	if params.Slots()*2 != params.N() {
		return nil, fmt.Errorf("hefloat: bootstrapping requires full slot packing")
	}
	if opts.K == 0 {
		opts.K = 16
	}
	if opts.TaylorDeg == 0 {
		opts.TaylorDeg = 7
	}
	bt := &Bootstrapper{
		params: params, enc: enc, eval: eval,
		K: opts.K, TaylorDeg: opts.TaylorDeg,
		bs: opts.babySteps(params.Slots()),
	}
	// Double-angle iterations: bring 2π(K+1) under a comfortable small angle.
	target := 0.5
	r := 0
	for 2*math.Pi*float64(opts.K+1)/math.Pow(2, float64(r)) > target {
		r++
	}
	bt.DAFIters = r

	a, b, err := probeEmbedding(params, enc)
	if err != nil {
		return nil, err
	}
	p, q, rr, s, err := invertEmbedding(a, b)
	if err != nil {
		return nil, err
	}
	q0 := float64(params.Q()[0])
	delta := params.DefaultScale()
	fIn := delta / q0
	fOut := q0 / (2 * math.Pi * delta)
	scaleMat := func(m [][]complex128, f complex128) [][]complex128 {
		out := make([][]complex128, len(m))
		for i := range m {
			out[i] = make([]complex128, len(m[i]))
			for j := range m[i] {
				out[i][j] = m[i][j] * f
			}
		}
		return out
	}
	mk := func(m [][]complex128) (*LinearTransform, error) { return NewLinearTransform(m) }
	if bt.ltP, err = mk(scaleMat(p, complex(fIn, 0))); err != nil {
		return nil, err
	}
	if bt.ltQ, err = mk(scaleMat(q, complex(fIn, 0))); err != nil {
		return nil, err
	}
	if bt.ltR, err = mk(scaleMat(rr, complex(fIn, 0))); err != nil {
		return nil, err
	}
	if bt.ltS, err = mk(scaleMat(s, complex(fIn, 0))); err != nil {
		return nil, err
	}
	if bt.ltA, err = mk(scaleMat(a, complex(fOut, 0))); err != nil {
		return nil, err
	}
	if bt.ltB, err = mk(scaleMat(b, complex(fOut, 0))); err != nil {
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
			_, err = lt.planFor(enc, bt.bs, top, delta)
			return err
		}
	}
	if err := runConcurrent(compile(bt.ltP), compile(bt.ltQ), compile(bt.ltR), compile(bt.ltS)); err != nil {
		return nil, err
	}
	return bt, nil
}

// applyDFT evaluates one of the six bootstrap transforms.
func (bt *Bootstrapper) applyDFT(lt *LinearTransform, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return lt.EvaluateBSGS(bt.eval, bt.enc, ct, bt.bs)
}

// CoeffToSlotTransforms exposes the four CoeffToSlot transforms (with the
// Δ/q0 factor folded in), in the pairing Bootstrap uses: u0 = P·z + Q·conj(z),
// u1 = R·z + S·conj(z). Exported so fhir's Bootstrap frontend can write the
// same pipeline as an IR program.
func (bt *Bootstrapper) CoeffToSlotTransforms() (p, q, r, s *LinearTransform) {
	return bt.ltP, bt.ltQ, bt.ltR, bt.ltS
}

// SlotToCoeffTransforms exposes the two SlotToCoeff transforms (with the
// q0/(2πΔ) factor folded in): out = A·w0 + B·w1.
func (bt *Bootstrapper) SlotToCoeffTransforms() (a, b *LinearTransform) {
	return bt.ltA, bt.ltB
}

// BabySteps reports the BSGS baby-step count the six transforms run with.
func (bt *Bootstrapper) BabySteps() int { return bt.bs }

// SineSchedule reports the sine-evaluation schedule: the Taylor degree of the
// small-angle pair and the number of double-angle iterations. The pre-scale
// angle is θ = 2π/2^dafIters.
func (bt *Bootstrapper) SineSchedule() (taylorDeg, dafIters int) {
	return bt.TaylorDeg, bt.DAFIters
}

// probeEmbedding recovers the matrices A, B with slots = A·(c0/Δ) + B·(c1/Δ)
// for coefficient halves c0, c1, by decoding unit-coefficient polynomials.
func probeEmbedding(params *ckks.Parameters, enc *ckks.Encoder) (a, b [][]complex128, err error) {
	n := params.Slots()
	nn := params.N()
	r := params.RingQP()
	delta := params.DefaultScale()
	a = make([][]complex128, n)
	b = make([][]complex128, n)
	for i := range a {
		a[i] = make([]complex128, n)
		b[i] = make([]complex128, n)
	}
	for j := 0; j < nn; j++ {
		poly := r.NewPoly(0)
		for i := range poly.Coeffs {
			poly.Coeffs[i][j] = ring.Reduce(uint64(delta), r.Moduli[i])
		}
		r.NTT(poly)
		col := enc.Decode(&ckks.Plaintext{Value: poly, Scale: delta})
		for i := 0; i < n; i++ {
			if j < n {
				a[i][j] = col[i]
			} else {
				b[i][j-n] = col[i]
			}
		}
	}
	return a, b, nil
}

// invertEmbedding solves [c0; c1] = [[P,Q],[R,S]]·[z; conj(z)] given
// z = A·c0 + B·c1, by inverting the stacked 2n×2n complex system.
func invertEmbedding(a, b [][]complex128) (p, q, r, s [][]complex128, err error) {
	n := len(a)
	m := 2 * n
	// M = [[A, B], [conj(A), conj(B)]], augmented with the identity.
	aug := make([][]complex128, m)
	for i := 0; i < m; i++ {
		aug[i] = make([]complex128, 2*m)
		for j := 0; j < n; j++ {
			if i < n {
				aug[i][j] = a[i][j]
				aug[i][j+n] = b[i][j]
			} else {
				aug[i][j] = cmplx.Conj(a[i-n][j])
				aug[i][j+n] = cmplx.Conj(b[i-n][j])
			}
		}
		aug[i][m+i] = 1
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < m; col++ {
		piv := col
		for row := col + 1; row < m; row++ {
			if cmplx.Abs(aug[row][col]) > cmplx.Abs(aug[piv][col]) {
				piv = row
			}
		}
		if cmplx.Abs(aug[piv][col]) < 1e-12 {
			return nil, nil, nil, nil, fmt.Errorf("hefloat: embedding system is singular at column %d", col)
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := 1 / aug[col][col]
		for j := col; j < 2*m; j++ {
			aug[col][j] *= inv
		}
		for row := 0; row < m; row++ {
			if row == col || aug[row][col] == 0 {
				continue
			}
			f := aug[row][col]
			for j := col; j < 2*m; j++ {
				aug[row][j] -= f * aug[col][j]
			}
		}
	}
	block := func(r0, c0 int) [][]complex128 {
		out := make([][]complex128, n)
		for i := range out {
			out[i] = make([]complex128, n)
			for j := range out[i] {
				out[i][j] = aug[r0+i][m+c0+j]
			}
		}
		return out
	}
	return block(0, 0), block(0, n), block(n, 0), block(n, n), nil
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
		func() (err error) { pz, err = bt.applyDFT(bt.ltP, raised); return },
		func() (err error) { qz, err = bt.applyDFT(bt.ltQ, conj); return },
		func() (err error) { rz, err = bt.applyDFT(bt.ltR, raised); return },
		func() (err error) { sz, err = bt.applyDFT(bt.ltS, conj); return },
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
		func() (err error) { z0, err = bt.applyDFT(bt.ltA, w0); return },
		func() (err error) { z1, err = bt.applyDFT(bt.ltB, w1); return },
	)
	if err != nil {
		return nil, err
	}
	out := addAligned(eval, z0, z1)
	// Report the canonical scale: the pipeline's folded constants are exact,
	// so the tracked scale is correct by construction.
	return out, nil
}

// evalSine evaluates sin(2πx) via a small-angle Taylor pair and DAFIters
// double-angle iterations.
func (bt *Bootstrapper) evalSine(u *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	theta := 2 * math.Pi / math.Pow(2, float64(bt.DAFIters))
	deg := bt.TaylorDeg
	// Pre-scale the argument (y = θ·u) so the Taylor coefficients are O(1)
	// and survive fixed-point encoding.
	y := bt.eval.Rescale(bt.eval.MulByConst(u, theta))
	sinCoeffs := make([]float64, deg+1) // odd series up to y^deg
	cosCoeffs := make([]float64, deg+2) // even series up to y^(deg+1)
	fact := 1.0
	for i := 0; i <= deg+1; i++ {
		if i > 0 {
			fact *= float64(i)
		}
		term := 1 / fact
		sign := 1.0
		if i%4 >= 2 {
			sign = -1
		}
		if i%2 == 1 {
			if i <= deg {
				sinCoeffs[i] = sign * term
			}
		} else if i <= deg+1 {
			cosCoeffs[i] = sign * term
		}
	}
	s, err := EvaluateTree(bt.eval, y, Polynomial{Coeffs: sinCoeffs})
	if err != nil {
		return nil, err
	}
	c, err := EvaluateTree(bt.eval, y, Polynomial{Coeffs: cosCoeffs})
	if err != nil {
		return nil, err
	}
	for i := 0; i < bt.DAFIters; i++ {
		sc := bt.eval.Rescale(bt.eval.MulRelin(s, c))
		ss := bt.eval.Rescale(bt.eval.MulRelin(s, s))
		s = bt.eval.Add(sc, sc) // sin(2x) = 2 sin x cos x
		negss2 := bt.eval.Neg(bt.eval.Add(ss, ss))
		c = bt.eval.AddConst(negss2, 1) // cos(2x) = 1 - 2 sin²x
	}
	return s, nil
}
