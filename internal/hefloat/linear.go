// Package hefloat is homomorphic linear algebra and polynomial evaluation on
// top of the ckks package, split into descriptions and executors.
//
// Descriptions say what to compute and are plain data, readable without an
// evaluator or keys: LinearTransform (a plaintext matrix in diagonal form, with
// Groups as the one spelling of its Baby-Step Giant-Step regrouping),
// NewPCMMTransform / CCMMSigma / CCMMTau / CCMMMasks (the column-packed matrix
// products of the paper's LLM benchmarks), Polynomial, and BootstrapDesc (the
// six DFT transforms and the sine schedule of bootstrapping).
//
// Executors say how, on a ckks.Evaluator: LinearTransform.EvaluateBSGS
// (plan-cached, double-hoisted; bs = Dim is the naive rotate-multiply-
// accumulate form), EvaluateTree (power tree) and Bootstrapper. The other
// executor of the same descriptions is the compiler: fhir's LinTrans, CCMM and
// Bootstrap frontends write them as IR programs, and the ciphertext matrix
// products exist only there.
//
// These are the client-side counterparts of the computations Hydra schedules
// across cards (FC layers, the DFT matrices inside bootstrapping, and the
// Chebyshev/Taylor polynomials of non-linear layers), and they validate the
// FHE-operation counts the performance model charges for those procedures.
package hefloat

import (
	"fmt"
	"sort"
)

// LinearTransform is a plaintext square matrix held in diagonal form:
// Diags[d][j] = M[j][(j+d) mod dim]. Only non-zero diagonals are stored.
// Dim and Diags are the whole description; plans is EvaluateBSGS's cache,
// whose zero value is ready to use and which no reader of the description
// touches.
type LinearTransform struct {
	Dim   int
	Diags map[int][]complex128

	plans planCache
}

// NewLinearTransform converts a dense dim×dim matrix to diagonal form,
// dropping all-zero diagonals.
func NewLinearTransform(m [][]complex128) (*LinearTransform, error) {
	dim := len(m)
	if dim == 0 {
		return nil, fmt.Errorf("hefloat: empty matrix")
	}
	for _, row := range m {
		if len(row) != dim {
			return nil, fmt.Errorf("hefloat: matrix is not square")
		}
	}
	lt := &LinearTransform{Dim: dim, Diags: map[int][]complex128{}}
	for d := 0; d < dim; d++ {
		diag := make([]complex128, dim)
		nonZero := false
		for j := 0; j < dim; j++ {
			diag[j] = m[j][(j+d)%dim]
			if diag[j] != 0 {
				nonZero = true
			}
		}
		if nonZero {
			lt.Diags[d] = diag
		}
	}
	return lt, nil
}

// Group is one giant step of a BSGS evaluation: the diagonals Giant+j for
// every j in Baby, whose inner product Σ_j shifted_diag_{Giant+j} ⊙ rot(x, j)
// is rotated by Giant. ShiftedDiag(Giant+j, Giant) is the diagonal to
// multiply with.
type Group struct {
	Giant int   // a multiple of the baby-step count
	Baby  []int // sorted, each in [0, bs)
}

// Groups is the BSGS regrouping of the transform's non-zero diagonals for bs
// baby steps (bs = Dim: one group, no giant step), giant steps and baby steps
// ascending. It is the one spelling of the diagonal → (giant, baby) rule:
// Compile, RotationsBSGS and fhir's LinTrans frontend all walk it, so the
// plans, the key set and the IR program agree on order by construction.
func (lt *LinearTransform) Groups(bs int) []Group {
	byGiant := map[int][]int{}
	for d := range lt.Diags {
		g := d - d%bs
		byGiant[g] = append(byGiant[g], d-g)
	}
	groups := make([]Group, 0, len(byGiant))
	for g, js := range byGiant {
		sort.Ints(js)
		groups = append(groups, Group{Giant: g, Baby: js})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Giant < groups[b].Giant })
	return groups
}

// sortedKeys returns the members of a rotation set in ascending order, so
// key generation and plan layout are reproducible.
func sortedKeys(set map[int]bool) []int {
	rots := make([]int, 0, len(set))
	for r := range set {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	return rots
}

// RotationsBSGS returns the rotation indices needed by EvaluateBSGS with the
// given baby-step count (bs = Dim: one per non-zero off-diagonal).
func (lt *LinearTransform) RotationsBSGS(bs int) []int {
	set := map[int]bool{}
	for _, grp := range lt.Groups(bs) {
		set[grp.Giant] = true
		for _, j := range grp.Baby {
			set[j] = true
		}
	}
	delete(set, 0)
	return sortedKeys(set)
}

// ShiftedDiag returns diagonal d pre-rotated right by g so the single
// giant-step rotation at the end of BSGS lands it correctly (see Group).
func (lt *LinearTransform) ShiftedDiag(d, g int) []complex128 {
	diag := lt.Diags[d]
	if g == 0 {
		return diag
	}
	shifted := make([]complex128, lt.Dim)
	for t := 0; t < lt.Dim; t++ {
		shifted[t] = diag[(t+lt.Dim-g%lt.Dim)%lt.Dim]
	}
	return shifted
}
