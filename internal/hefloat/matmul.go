package hefloat

import "fmt"

// The data of encrypted matrix multiplication in the style the paper's LLM
// benchmarks use (Section III-A, following the non-interactive transformer
// inference construction): a k×k matrix is packed column-major into the slots
// of one ciphertext (column c occupies slots [c·k, (c+1)·k)), and
//
//   - PCMM (plaintext-ciphertext matrix multiplication) is a linear transform
//     with one rotation and one plaintext multiplication per column diagonal —
//     the Table I recipe of 1 Rotation + 1 PMult per parallel unit. Evaluate
//     NewPCMMTransform with EvaluateBSGS (bs = slots), or write it with fhir's
//     LinTrans;
//   - CCMM (ciphertext-ciphertext) is the E2DM-style product
//     Y = Σ_d φ_d(σ(X)) ⊙ ψ_d(τ(Z)): two one-time diagonal pre-transforms
//     (CCMMSigma, CCMMTau), then k iterations, each combining a clean column
//     rotation φ_d of σ(X) with a masked in-column row shift ψ_d of τ(Z)
//     (CCMMMasks) and one ciphertext multiplication — matching Table I's
//     rotation-heavy CCMM recipe. fhir's CCMM frontend writes it as a program.

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

// ccmmPermutation builds the k²×k² permutation matrix whose output entry
// (r, c) of the column-major packing reads input slot in(r, c).
func ccmmPermutation(k int, in func(r, c int) int) [][]complex128 {
	n := k * k
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
	}
	for c := 0; c < k; c++ {
		for r := 0; r < k; r++ {
			m[c*k+r][in(r, c)] = 1
		}
	}
	return m
}

// CCMMSigma builds the σ pre-transform of the E2DM-style matrix product:
// σ(A)[r][c] = A[r][(r+c) mod k], as a dense permutation over the
// column-major packing. Exported so reference implementations and lowerings
// outside this package (the conformance harness, fhir's CCMM frontend)
// evaluate the identical permutation.
func CCMMSigma(k int) [][]complex128 {
	return ccmmPermutation(k, func(r, c int) int { return ((r+c)%k)*k + r })
}

// CCMMTau builds the τ pre-transform: τ(B)[r][c] = B[(r+c) mod k][c].
func CCMMTau(k int) [][]complex128 {
	return ccmmPermutation(k, func(r, c int) int { return c*k + (r+c)%k })
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
