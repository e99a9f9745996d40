package hefloat

import (
	"fmt"
	"sync"

	"hydra/internal/ckks"
)

// Encrypted matrix multiplication in the style the paper's LLM benchmarks
// use (Section III-A, following the non-interactive transformer inference
// construction): a k×k matrix is packed column-major into the slots of one
// ciphertext (column c occupies slots [c·k, (c+1)·k)), and
//
//   - PCMM (plaintext-ciphertext matrix multiplication) costs one rotation
//     and one plaintext multiplication per column diagonal — the Table I
//     recipe of 1 Rotation + 1 PMult per parallel unit;
//   - CCMM (ciphertext-ciphertext) additionally extracts and replicates the
//     scalar diagonals of the encrypted right operand, costing ~log2(k)
//     rotations, two plaintext masks and one ciphertext multiplication per
//     diagonal — matching Table I's rotation-heavy CCMM recipe.

// PCMMRotations returns the rotation indices PCMM needs for k×k matrices.
func PCMMRotations(k int) []int {
	rots := make([]int, 0, k-1)
	for d := 1; d < k; d++ {
		rots = append(rots, d*k)
	}
	return rots
}

// NewPCMMTransform builds the linear transform of Y = X·W over the
// column-major packing: diagonal d·k carries the mask replicating
// W[(c+d) mod k][c] down column c. Hold the result across calls so repeated
// products against the same W reuse its compiled plan (the weights-resident
// pattern of the paper's PCMM recipe).
func NewPCMMTransform(w [][]float64, slots int) (*LinearTransform, error) {
	k := len(w)
	if k*k != slots {
		return nil, fmt.Errorf("hefloat: matrix size %d² must equal slot count %d", k, slots)
	}
	lt := &LinearTransform{Dim: slots, Diags: map[int][]complex128{}}
	for d := 0; d < k; d++ {
		mask := make([]complex128, slots)
		nonZero := false
		for c := 0; c < k; c++ {
			wv := complex(w[(c+d)%k][c], 0)
			for r := 0; r < k; r++ {
				mask[c*k+r] = wv
			}
			if wv != 0 {
				nonZero = true
			}
		}
		if nonZero {
			lt.Diags[d*k] = mask
		}
	}
	return lt, nil
}

// PCMM computes Y = X·W for an encrypted column-packed X and a plaintext W:
// column c of the product is Σ_d W[(c+d) mod k][c] · X[:,(c+d) mod k], so
// each diagonal d contributes one column rotation of X (by d·k slots) and
// one multiplication with the plaintext mask carrying the matching W
// entries. All column rotations are baby steps of one double-hoisted BSGS
// evaluation (one digit decomposition and one deferred ModDown pair for the
// whole product); callers reusing a weight matrix should hold a
// NewPCMMTransform and EvaluateBSGS it directly to also reuse the compiled
// plan.
func PCMM(eval *ckks.Evaluator, enc *ckks.Encoder, ctX *ckks.Ciphertext, w [][]float64) (*ckks.Ciphertext, error) {
	slots := eval.Params().Slots()
	lt, err := NewPCMMTransform(w, slots)
	if err != nil {
		return nil, err
	}
	if len(lt.Diags) == 0 {
		// All-zero weights: the product is the zero ciphertext at the same
		// scale budget as the general path.
		pt, err := enc.EncodeAtLevel(nil, eval.Params().DefaultScale(), ctX.Level())
		if err != nil {
			return nil, err
		}
		return eval.Rescale(eval.MulPlain(ctX, pt)), nil
	}
	return lt.EvaluateBSGS(eval, enc, ctX, slots)
}

// CCMMRotations returns the rotation indices CCMM needs for k×k matrices:
// the σ/τ pre-transforms may touch any diagonal, and the per-iteration
// shifts (d·k, d and d-k mod k²) all fall in the same range.
func CCMMRotations(k int) []int {
	rots := make([]int, 0, k*k-1)
	for d := 1; d < k*k; d++ {
		rots = append(rots, d)
	}
	return rots
}

// CCMMSigma builds the σ pre-transform of the E2DM-style matrix product:
// σ(A)[r][c] = A[r][(r+c) mod k], as a dense permutation over the
// column-major packing. Exported so reference implementations and lowerings
// outside this package (the conformance harness, fhir's CCMM frontend)
// evaluate the identical permutation.
func CCMMSigma(k int) [][]complex128 {
	n := k * k
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
	}
	for c := 0; c < k; c++ {
		for r := 0; r < k; r++ {
			out := c*k + r
			in := ((r+c)%k)*k + r
			m[out][in] = 1
		}
	}
	return m
}

// CCMMTau builds the τ pre-transform: τ(B)[r][c] = B[(r+c) mod k][c].
func CCMMTau(k int) [][]complex128 {
	n := k * k
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
	}
	for c := 0; c < k; c++ {
		for r := 0; r < k; r++ {
			out := c*k + r
			in := c*k + (r+c)%k
			m[out][in] = 1
		}
	}
	return m
}

// CCMMMasks returns the ψ_d selection mask vectors of CCMM iteration d over
// the column-major k×k packing: main selects the rows r < k-d that come from
// rotation d, wrap the wrap-around rows from rotation d-k. For d == 0 main is
// the all-ones mask and wrap is nil. Exported alongside CCMMSigma/CCMMTau so
// external engines can replay the identical iteration structure.
func CCMMMasks(k, d int) (main, wrap []complex128) {
	slots := k * k
	main = make([]complex128, slots)
	if d == 0 {
		for i := range main {
			main[i] = 1
		}
		return main, nil
	}
	wrap = make([]complex128, slots)
	for c := 0; c < k; c++ {
		for r := 0; r < k; r++ {
			if r < k-d {
				main[c*k+r] = 1
			} else {
				wrap[c*k+r] = 1
			}
		}
	}
	return main, wrap
}

// ccmmLTs caches the σ/τ pre-transforms per matrix dimension: they are pure
// permutation matrices independent of the parameter set, and each carries
// its own per-parameter compiled plans, so repeated CCMM calls encode
// nothing for the pre-transforms.
var ccmmLTs sync.Map // k -> *ccmmPair

type ccmmPair struct {
	once       sync.Once
	sigma, tau *LinearTransform
	err        error
}

func ccmmTransforms(k int) (sigma, tau *LinearTransform, err error) {
	v, _ := ccmmLTs.LoadOrStore(k, &ccmmPair{})
	pair := v.(*ccmmPair)
	pair.once.Do(func() {
		pair.sigma, pair.err = NewLinearTransform(CCMMSigma(k))
		if pair.err == nil {
			pair.tau, pair.err = NewLinearTransform(CCMMTau(k))
		}
	})
	return pair.sigma, pair.tau, pair.err
}

// ccmmMaskKey identifies the ψ_d selection masks for one iteration of one
// CCMM shape at one (level, scale).
type ccmmMaskKey struct {
	params *ckks.Parameters
	k, d   int
	level  int
	scale  float64
}

var ccmmMasks sync.Map // ccmmMaskKey -> [2]*ckks.Plaintext (main, wrap; d == 0 holds the all-ones mask in main)

func ccmmMaskPts(enc *ckks.Encoder, k, d, level int, scale float64) (ptMain, ptWrap *ckks.Plaintext, err error) {
	key := ccmmMaskKey{params: enc.Params(), k: k, d: d, level: level, scale: scale}
	if v, ok := ccmmMasks.Load(key); ok {
		pts := v.([2]*ckks.Plaintext)
		return pts[0], pts[1], nil
	}
	maskMain, maskWrap := CCMMMasks(k, d)
	if ptMain, err = enc.EncodeAtLevel(maskMain, scale, level); err != nil {
		return nil, nil, err
	}
	if maskWrap != nil {
		if ptWrap, err = enc.EncodeAtLevel(maskWrap, scale, level); err != nil {
			return nil, nil, err
		}
	}
	ccmmMasks.Store(key, [2]*ckks.Plaintext{ptMain, ptWrap})
	return ptMain, ptWrap, nil
}

// CCMM computes Y = X·Z for two encrypted column-packed k×k matrices with
// the E2DM-style algorithm the paper's CCMM recipe reflects: two one-time
// diagonal pre-transforms σ(X) and τ(Z), then k iterations, each combining a
// clean column rotation of σ(X) with a masked in-column row shift of τ(Z)
// and one ciphertext-ciphertext multiplication:
//
//	Y = Σ_d φ_d(σ(X)) ⊙ ψ_d(τ(Z)),
//	φ_d: column shift by d (one rotation), ψ_d: row shift by d (two masked
//	rotations), so each unit is rotation-heavy with a single CMult, matching
//	Table I's CCMM row.
//
// The pre-transforms run as double-hoisted all-baby BSGS evaluations through
// cached plans, the per-iteration selection masks are encoded once and
// cached, and the φ_d/ψ_d rotations are hoisted onto one digit decomposition
// per operand.
func CCMM(eval *ckks.Evaluator, enc *ckks.Encoder, ctX, ctZ *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	slots := eval.Params().Slots()
	k := 1
	for k*k < slots {
		k++
	}
	if k*k != slots {
		return nil, fmt.Errorf("hefloat: slot count %d is not a perfect square", slots)
	}
	scale := eval.Params().DefaultScale()

	sigma, tau, err := ccmmTransforms(k)
	if err != nil {
		return nil, err
	}
	var a, b *ckks.Ciphertext
	err = runConcurrent(
		func() (err error) { a, err = sigma.EvaluateBSGS(eval, enc, ctX, slots); return },
		func() (err error) { b, err = tau.EvaluateBSGS(eval, enc, ctZ, slots); return },
	)
	if err != nil {
		return nil, err
	}

	// One hoisted decomposition per operand covers every iteration's
	// rotations: the column shifts of a and both row-shift pieces of b.
	aRots := make([]int, 0, k-1)
	bRots := make([]int, 0, 2*(k-1))
	for d := 1; d < k; d++ {
		aRots = append(aRots, d*k)
		bRots = append(bRots, d, d-k)
	}
	arot := eval.RotateHoisted(a, aRots)
	brot := eval.RotateHoisted(b, bRots)

	var acc *ckks.Ciphertext
	for d := 0; d < k; d++ {
		// φ_d: shift the columns of a left by d (clean slot rotation).
		ad := a
		if d != 0 {
			ad = arot[d*k]
		}
		// ψ_d: shift the rows of b up by d within each column: slots with
		// row index r < k-d come from rotation d, the wrap-around rows from
		// rotation d-k; two masks select the pieces.
		ptMain, ptWrap, err := ccmmMaskPts(enc, k, d, b.Level(), scale)
		if err != nil {
			return nil, err
		}
		var bd *ckks.Ciphertext
		if d == 0 {
			bd = eval.Rescale(eval.MulPlain(b, ptMain))
		} else {
			main := eval.MulPlain(brot[d], ptMain)
			wrap := eval.MulPlain(brot[d-k], ptWrap)
			bd = eval.Rescale(eval.Add(main, wrap))
		}
		aligned := ad.CopyNew()
		if aligned.Level() > bd.Level() {
			aligned.DropLevel(aligned.Level() - bd.Level())
		}
		term := eval.MulRelin(aligned, bd)
		if acc == nil {
			acc = term // fresh MulRelin output; safe to mutate in place
		} else {
			eval.AddAcc(term, acc)
		}
	}
	return eval.Rescale(acc), nil
}
