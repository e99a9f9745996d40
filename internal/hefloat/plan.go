package hefloat

import (
	"fmt"
	"sync"

	"hydra/internal/ckks"
	"hydra/internal/ring"
)

// runConcurrent executes independent ciphertext-level tasks on the shared
// limb-pool (see internal/ring), returning the first error. Results are
// written to caller-owned slots, so completion order never affects output.
func runConcurrent(fns ...func() error) error {
	errs := make([]error, len(fns))
	ring.ForEachLimb(len(fns), func(i int) { errs[i] = fns[i]() })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// planCache holds a transform's compiled plans (pre-shifted, pre-encoded
// diagonal plaintexts keyed by parameter set, baby-step count, level and
// scale): built on first use and reused across evaluations, including
// concurrent ones.
type planCache struct {
	mu sync.Mutex
	m  map[planKey]*TransformPlan
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

// planGroup is one giant step with its pre-shifted, pre-encoded diagonals:
// pts[i] belongs to baby step Baby[i].
type planGroup struct {
	Group
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
	p := &TransformPlan{BS: bs, Level: level, Scale: scale, params: enc.Params()}
	rotSet := map[int]bool{}
	var fns []func() error
	for _, grp := range lt.Groups(bs) {
		pts := make([]*ckks.ExtPlaintext, len(grp.Baby))
		for ti, j := range grp.Baby {
			rotSet[j] = true
			ti, d, g := ti, grp.Giant+j, grp.Giant
			fns = append(fns, func() (err error) {
				pts[ti], err = enc.EncodeExtAtLevel(lt.ShiftedDiag(d, g), scale, level)
				return err
			})
		}
		p.groups = append(p.groups, planGroup{Group: grp, pts: pts})
	}
	p.rots = sortedKeys(rotSet)
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
	c := &lt.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[key]; ok {
		return p, nil
	}
	p, err := lt.Compile(enc, bs, level, scale)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = map[planKey]*TransformPlan{}
	}
	c.m[key] = p
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
			xs := make([]*ckks.ExtCiphertext, len(grp.Baby))
			for ti, j := range grp.Baby {
				xs[ti] = baby[j]
			}
			eval.MulPlainExtAcc(xs, grp.pts, acc)
			if grp.Giant != 0 {
				// The group's only ModDown; the giant rotation re-enters the
				// extended basis so the final fold stays deferred, and the
				// ModDown's rows go back to the pool.
				down := eval.ModDownExt(acc)
				acc = eval.RotateExt(down, grp.Giant)
				eval.Release(down)
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
	return eval.ModDownExtRescale(acc), nil
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
