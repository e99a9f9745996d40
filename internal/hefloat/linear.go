// Package hefloat provides homomorphic linear algebra and polynomial
// evaluation on top of the ckks package: plaintext-matrix × ciphertext-vector
// products in diagonal form (Baby-Step Giant-Step; one baby step per diagonal,
// bs = Dim, is the naive rotate-multiply-accumulate form), and power-tree
// polynomial evaluation.
//
// These are the client-side counterparts of the computations Hydra schedules
// across cards (FC layers, the DFT matrices inside bootstrapping, and the
// Chebyshev/Taylor polynomials of non-linear layers), and they validate the
// FHE-operation counts the performance model charges for those procedures.
package hefloat

import (
	"fmt"
	"sort"
	"sync"

	"hydra/internal/ckks"
	"hydra/internal/ring"
)

// runConcurrent executes independent ciphertext-level tasks on the shared
// limb-pool (see internal/ring), returning the first error. Results are
// written to caller-owned slots, so completion order never affects output.
func runConcurrent(fns ...func() error) error {
	errs := make([]error, len(fns))
	tasks := make([]func(), len(fns))
	for i, fn := range fns {
		i, fn := i, fn
		tasks[i] = func() { errs[i] = fn() }
	}
	ring.RunTasks(tasks...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LinearTransform is a plaintext square matrix held in diagonal form:
// Diags[d][j] = M[j][(j+d) mod dim]. Only non-zero diagonals are stored.
//
// The zero value of the embedded cache is ready to use: compiled plans
// (pre-shifted, pre-encoded diagonal plaintexts keyed by baby-step count,
// level and scale) are built on first use and reused across evaluations,
// including concurrent ones.
type LinearTransform struct {
	Dim   int
	Diags map[int][]complex128

	mu    sync.Mutex
	plans map[planKey]*TransformPlan
}

// planKey identifies one compiled evaluation of a transform. The parameter
// set participates so a transform shared between contexts cannot alias plans
// with incompatible moduli.
type planKey struct {
	params *ckks.Parameters
	bs     int
	level  int
	scale  float64
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

// RotationsBSGS returns the rotation indices needed by EvaluateBSGS with the
// given baby-step count (bs = Dim: one per non-zero off-diagonal), sorted for
// reproducible key generation.
func (lt *LinearTransform) RotationsBSGS(bs int) []int {
	set := map[int]bool{}
	for d := range lt.Diags {
		j := d % bs
		g := d - j
		if j != 0 {
			set[j] = true
		}
		if g != 0 {
			set[g] = true
		}
	}
	rots := make([]int, 0, len(set))
	for r := range set {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	return rots
}

// ShiftedDiag returns diagonal d pre-rotated right by g so the single
// giant-step rotation at the end of BSGS lands it correctly. Exported for
// engines that re-derive the BSGS grouping outside this package (fhir's
// LinTrans frontend writes the same pre-shifted diagonals as plaintext
// operands).
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

// TransformPlan is a compiled BSGS evaluation of a LinearTransform: every
// diagonal pre-shifted by its giant step and pre-encoded into an
// extended-basis NTT-domain plaintext at a fixed (level, scale), plus the
// deduplicated, sorted baby-step rotation list. Plans are immutable after
// Compile and safe to Apply concurrently; steady-state evaluation through a
// plan encodes nothing.
type TransformPlan struct {
	BS    int
	Level int
	Scale float64

	params *ckks.Parameters
	rots   []int // sorted baby-step rotations (includes 0 when diagonal d ≡ 0 mod BS exists)
	groups []planGroup
}

// planGroup is one giant step: the baby indices j and matching pre-shifted
// plaintexts whose inner product is rotated by g.
type planGroup struct {
	g   int
	js  []int
	pts []*ckks.ExtPlaintext
}

// Compile pre-shifts and pre-encodes every diagonal for a BSGS evaluation
// with bs baby steps at the given level and scale. The encodes run
// concurrently on the shared limb pool.
func (lt *LinearTransform) Compile(enc *ckks.Encoder, bs, level int, scale float64) (*TransformPlan, error) {
	if bs <= 0 {
		return nil, fmt.Errorf("hefloat: baby-step count must be positive, got %d", bs)
	}
	if len(lt.Diags) == 0 {
		return nil, fmt.Errorf("hefloat: transform has no non-zero diagonals")
	}
	byGiant := map[int][]int{}
	rotSet := map[int]bool{}
	for d := range lt.Diags {
		g := d - d%bs
		byGiant[g] = append(byGiant[g], d)
		rotSet[d%bs] = true
	}
	gs := make([]int, 0, len(byGiant))
	for g := range byGiant {
		gs = append(gs, g)
	}
	sort.Ints(gs)

	p := &TransformPlan{BS: bs, Level: level, Scale: scale, params: enc.Params()}
	p.rots = make([]int, 0, len(rotSet))
	for j := range rotSet {
		p.rots = append(p.rots, j)
	}
	sort.Ints(p.rots)

	p.groups = make([]planGroup, len(gs))
	var fns []func() error
	for gi, g := range gs {
		ds := append([]int(nil), byGiant[g]...)
		sort.Ints(ds)
		grp := planGroup{g: g, js: make([]int, len(ds)), pts: make([]*ckks.ExtPlaintext, len(ds))}
		for ti, d := range ds {
			grp.js[ti] = d - g
			gi, ti, d, g := gi, ti, d, g
			fns = append(fns, func() (err error) {
				p.groups[gi].pts[ti], err = enc.EncodeExtAtLevel(lt.ShiftedDiag(d, g), scale, level)
				return err
			})
		}
		p.groups[gi] = grp
	}
	if err := runConcurrent(fns...); err != nil {
		return nil, err
	}
	return p, nil
}

// planFor returns the cached plan for (bs, level, scale), compiling it on
// first use. Concurrent callers serialize on the compile and then share the
// immutable result.
func (lt *LinearTransform) planFor(enc *ckks.Encoder, bs, level int, scale float64) (*TransformPlan, error) {
	key := planKey{params: enc.Params(), bs: bs, level: level, scale: scale}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if p, ok := lt.plans[key]; ok {
		return p, nil
	}
	p, err := lt.Compile(enc, bs, level, scale)
	if err != nil {
		return nil, err
	}
	if lt.plans == nil {
		lt.plans = map[planKey]*TransformPlan{}
	}
	lt.plans[key] = p
	return p, nil
}

// Apply evaluates the compiled plan on ct with double-hoisted keyswitching:
// the baby rotations share one digit decomposition and stay in the extended
// P·Q basis, each giant step folds its inner product there and pays a single
// ModDown (plus one rotation whose output is folded back into the extended
// basis), and one final ModDown closes the evaluation — instead of a ModDown
// pair per rotation. ct may sit at or below the plan's compile level.
func (p *TransformPlan) Apply(eval *ckks.Evaluator, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if eval.Params() != p.params {
		return nil, fmt.Errorf("hefloat: plan compiled for a different parameter set")
	}
	if ct.Level() > p.Level {
		return nil, fmt.Errorf("hefloat: plan compiled at level %d cannot evaluate a level-%d ciphertext", p.Level, ct.Level())
	}
	// Baby steps: one hoisted decomposition, all results left in the
	// extended basis with their ModDown deferred.
	baby := eval.RotateHoistedExt(ct, p.rots)

	// Giant steps are independent: evaluate them concurrently on the shared
	// pool and fold the per-group results in sorted order, so parallel and
	// serial execution produce bit-identical ciphertexts.
	exts := make([]*ckks.ExtCiphertext, len(p.groups))
	fns := make([]func() error, len(p.groups))
	for gi := range p.groups {
		gi, grp := gi, &p.groups[gi]
		fns[gi] = func() error {
			acc := eval.NewExtAccumulator(ct.Level(), ct.Scale*p.Scale)
			// One batched fold per giant step: every diagonal of the group
			// streams through each accumulator row while it stays hot,
			// instead of one full accumulator walk per diagonal.
			xs := make([]*ckks.ExtCiphertext, len(grp.js))
			for ti, j := range grp.js {
				xs[ti] = baby[j]
			}
			eval.MulPlainExtAcc(xs, grp.pts, acc)
			if grp.g != 0 {
				// The group's only ModDown; the giant rotation re-enters the
				// extended basis so the final fold stays deferred.
				acc = eval.RotateExt(eval.ModDownExt(acc), grp.g)
			}
			exts[gi] = acc
			return nil
		}
	}
	if err := runConcurrent(fns...); err != nil {
		return nil, err
	}
	for _, rot := range p.rots {
		eval.ReleaseExt(baby[rot])
	}
	acc := exts[0]
	for _, e := range exts[1:] {
		eval.AddExtAcc(e, acc)
		eval.ReleaseExt(e)
	}
	return eval.Rescale(eval.ModDownExt(acc)), nil
}

// EvaluateBSGS applies the transform with the Baby-Step Giant-Step algorithm:
// bs baby rotations of the input are shared across all giant steps, reducing
// rotations from |Diags| to roughly bs + |Diags|/bs (Section III-B of the
// paper). The evaluation is compiled on first use — diagonals pre-shifted and
// pre-encoded, keyed by (bs, level, scale) — and runs double-hoisted through
// the cached plan; see TransformPlan.Apply. The vector occupies the first Dim
// slots, repeated so rotations wrap correctly (Dim must divide the slot count
// and the caller must have replicated the vector; for Dim == slots no
// replication is needed).
func (lt *LinearTransform) EvaluateBSGS(eval *ckks.Evaluator, enc *ckks.Encoder, ct *ckks.Ciphertext, bs int) (*ckks.Ciphertext, error) {
	plan, err := lt.planFor(enc, bs, ct.Level(), eval.Params().DefaultScale())
	if err != nil {
		return nil, err
	}
	return plan.Apply(eval, ct)
}
