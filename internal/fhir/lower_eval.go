package fhir

import (
	"context"
	"errors"
	"fmt"

	"hydra/internal/ckks"
	"hydra/internal/ring"
)

// EvalContext carries the CKKS machinery a program executes against. The
// evaluator must hold a relinearization key if the program multiplies
// ciphertexts, and rotation keys covering Program.Rotations().
type EvalContext struct {
	Eval *ckks.Evaluator
	Enc  *ckks.Encoder
}

// Evaluate executes a legalized program on the functional CKKS evaluator.
// Inputs maps input names to ciphertexts, each at the program's InputLevel
// and canonical scale. Fused ops lower onto the extended-basis machinery:
// RotBasket → RotateHoistedExt, DiagMac → EncodeExtInto pooled rows +
// MulPlainExtAcc + one ModDownExt, RotSum → AddExtAcc folds; a closed
// basket → RotateHoistedClosed, its DiagMacs folding Q-row encodes into a
// closed accumulator that ModDownExt closes by a sweep; tier-A hoist groups
// share one RotateHoisted decomposition. A Relin, extended DiagMac or RotSum
// whose one consumer is a Rescale closes its extended-basis accumulator with
// that Rescale, in one ModDownExtRescale. A value's rows go back to the
// ring's row pool once its last consumer has lowered, for the next result to
// reuse; a level drop is a view of its operand's rows, and an Add or AddConst
// whose operand dies writes into it. The inputs are read, never written, and
// the output is the caller's alone. The evaluator
// reports contract violations (a missing rotation or relinearization key, a
// rescale at level 0) by panicking; one raised on the calling goroutine comes
// back as the failing value's error.
func Evaluate(p *Program, ctx EvalContext, inputs map[string]*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if !p.Legal {
		return nil, fmt.Errorf("fhir: Evaluate needs a legalized program")
	}
	if ctx.Eval == nil || ctx.Enc == nil {
		return nil, fmt.Errorf("fhir: Evaluate needs an evaluator and an encoder")
	}
	e := newEvalLowering(p, ctx, inputs)
	if err := e.run(context.TODO(), p.Values); err != nil {
		return nil, err
	}
	out, ok := e.deg1[p.Output]
	if !ok {
		return nil, fmt.Errorf("fhir: output v%d did not lower to a degree-1 ciphertext", p.Output.ID)
	}
	if !e.owned[p.Output] {
		// An input, a view that may share an input's rows, or rows a live
		// view pinned: the caller gets rows of its own.
		out = out.CopyNew()
	}
	return out, nil
}

// evalLowering runs values of one program on the functional evaluator. Both
// Evaluate (every value) and each LowerCluster kernel (a card's share) run
// through it.
type evalLowering struct {
	p      *Program
	ctx    EvalContext
	inputs map[string]*ckks.Ciphertext
	vals   []*Value // what run is lowering; hoist groups draw from it

	deg1    map[*Value]*ckks.Ciphertext
	deg2    map[*Value]*ckks.Ciphertext2
	baskets map[*Value]map[int]*ckks.ExtCiphertext
	hoisted map[int]map[int]*ckks.Ciphertext // tier-A group id -> rot -> result

	left  map[*Value]int                 // uses not yet lowered; the output's and other cards' never are
	fused map[*Value]bool                // values whose accumulator their Rescale closes
	open  map[*Value]*ckks.ExtCiphertext // a fused value's accumulator, until its Rescale
	owned map[*Value]bool                // values whose rows this run made and releases at their last use
}

func newEvalLowering(p *Program, ctx EvalContext, inputs map[string]*ckks.Ciphertext) *evalLowering {
	return &evalLowering{
		p: p, ctx: ctx, inputs: inputs,
		deg1:    map[*Value]*ckks.Ciphertext{},
		deg2:    map[*Value]*ckks.Ciphertext2{},
		baskets: map[*Value]map[int]*ckks.ExtCiphertext{},
		hoisted: map[int]map[int]*ckks.Ciphertext{},
		open:    map[*Value]*ckks.ExtCiphertext{},
		owned:   map[*Value]bool{},
	}
}

// run lowers vals in order, checking ctx between values; a value's operands
// must be among vals or already bound in deg1. A value whose last use has
// lowered retires, its rows back in the pool if it owns them; the output and
// a value a consumer on another card reads never retire. An error or a
// recovered panic comes back naming the failing value, every row the run
// still owns released.
func (e *evalLowering) run(ctx context.Context, vals []*Value) (err error) {
	e.vals = vals
	e.left = e.p.uses()
	e.fused = fusedOperands(e.left, vals)
	var v *Value
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fhir: evaluate v%d (%s): panic: %v", v.ID, v.Op, r)
		}
		if err != nil {
			for w, owned := range e.owned {
				if owned {
					e.release(w)
				}
			}
		}
		e.releaseBaskets()
	}()
	for _, v = range vals {
		err := ctx.Err()
		if err == nil {
			err = e.lower(v)
		}
		if err != nil {
			return fmt.Errorf("fhir: evaluate v%d (%s): %w", v.ID, v.Op, err)
		}
		if _, adopted := e.owned[v]; !adopted {
			// Fresh rows, but for the caller's inputs and the rotations a
			// hoist group's map holds.
			e.owned[v] = v.Op != OpInput && (v.Op != OpRotate || v.Hoist == 0)
		}
		for _, a := range v.Args {
			if e.left[a]--; e.left[a] == 0 {
				e.retire(a)
			}
		}
	}
	return nil
}

// dies reports that the value lowering now is a's last use and a's rows are
// the run's: that value may write into them.
func (e *evalLowering) dies(a *Value) bool { return e.owned[a] && e.left[a] == 1 }

// adopt hands a's rows to v, which views them or wrote into them: v owns them
// when a did and v is a's last use. A view of a value that lives on pins it,
// never released, so a owns nothing either way.
func (e *evalLowering) adopt(v, a *Value) {
	e.owned[v] = e.dies(a)
	e.owned[a] = false
}

// retire drops a value no later value in the run reads.
func (e *evalLowering) retire(v *Value) {
	if e.owned[v] {
		e.release(v)
	}
	delete(e.deg1, v)
	delete(e.deg2, v)
	delete(e.baskets, v)
}

// release returns an owned value's rows to the ring pool.
func (e *evalLowering) release(v *Value) {
	ev := e.ctx.Eval
	if ct, ok := e.deg1[v]; ok {
		ev.Release(ct)
	}
	if ct, ok := e.deg2[v]; ok {
		ev.Release2(ct)
	}
	for _, ext := range e.baskets[v] {
		ev.ReleaseExt(ext)
	}
	delete(e.baskets, v)
	e.owned[v] = false
}

// releaseBaskets returns the rows of every basket that never retired — one
// a DiagMac on another card reads — to the ring pool, and those of an open
// accumulator, which survives only a run that failed before its Rescale.
func (e *evalLowering) releaseBaskets() {
	for _, basket := range e.baskets {
		for _, ext := range basket {
			e.ctx.Eval.ReleaseExt(ext)
		}
	}
	for _, ext := range e.open {
		e.ctx.Eval.ReleaseExt(ext)
	}
}

// fusedOperands returns the values that lower to an extended-basis
// accumulator (Relin, DiagMac, RotSum) and whose one consumer is a Rescale in
// vals: that Rescale closes the accumulator with ModDownExtRescale, and the
// value itself is never materialized. A DiagMac over a closed basket has no
// ModDown for the Rescale to ride, so it never fuses. A Rescale outside vals
// — the output wrapper a multi-card lowering peels onto card 0 — does not
// fuse with its operand in an earlier run; it need not, both forms being
// equal word for word.
func fusedOperands(uses map[*Value]int, vals []*Value) map[*Value]bool {
	fused := map[*Value]bool{}
	for _, v := range vals {
		if v.Op != OpRescale {
			continue
		}
		switch a := v.Args[0]; a.Op {
		case OpRelin, OpDiagMac, OpRotSum:
			if uses[a] == 1 && (a.Op != OpDiagMac || !a.Args[0].Closed) {
				fused[a] = true
			}
		}
	}
	return fused
}

// close binds v's accumulator: held open for its Rescale when v is fused,
// closed by ModDownExt otherwise.
func (e *evalLowering) close(v *Value, acc *ckks.ExtCiphertext) {
	if e.fused[v] {
		e.open[v] = acc
		return
	}
	e.deg1[v] = e.ctx.Eval.ModDownExt(acc)
}

func (e *evalLowering) ct(v *Value) (*ckks.Ciphertext, error) {
	if ct, ok := e.deg1[v]; ok {
		return ct, nil
	}
	return nil, fmt.Errorf("operand v%d has no degree-1 result", v.ID)
}

func encodePlain(enc *ckks.Encoder, pl *Plain, slots, level int) (*ckks.Plaintext, error) {
	vals, err := pl.Values(slots)
	if err != nil {
		return nil, err
	}
	return enc.EncodeAtLevel(vals, enc.Params().DefaultScale(), level)
}

// hoistGroup materializes a tier-A group on first touch: one RotateHoisted
// call covering every rotation of the group that run is lowering. A rotation's
// result does not depend on which others share its call.
func (e *evalLowering) hoistGroup(v *Value) (map[int]*ckks.Ciphertext, error) {
	if m, ok := e.hoisted[v.Hoist]; ok {
		return m, nil
	}
	src, err := e.ct(v.Args[0])
	if err != nil {
		return nil, err
	}
	var rots []int
	for _, w := range e.vals {
		if w.Op == OpRotate && w.Hoist == v.Hoist {
			rots = append(rots, w.K)
		}
	}
	m := e.ctx.Eval.RotateHoisted(src, rots)
	e.hoisted[v.Hoist] = m
	return m, nil
}

// diagMac folds Σ xs[i] ⊙ encode(v.Plains[i]) into acc a chunk of diagonals
// at a time: the chunk is encoded over the rows acc carries (extended, or Q
// only when acc is closed) as independent tasks on the limb pool (FFT
// included; each task's row fan-out runs inline once the pool is busy) into
// pooled scratch, then folded by one MulPlainExtAcc. Every chunk reuses the
// scratch, handed back on return: no plaintext outlives the call. Terms fold
// in v.Rots order, so neither worker count nor chunking changes the result.
func (e *evalLowering) diagMac(v *Value, xs []*ckks.ExtCiphertext, acc *ckks.ExtCiphertext) error {
	ev := e.ctx.Eval
	r := ev.Params().RingQP()
	chunk := min(4*ring.MaxWorkers(), len(xs)) // four diagonals per worker: the pool stays busy between folds
	pts := make([]*ckks.ExtPlaintext, chunk)
	for i := range pts {
		scratch := r.GetScratch(len(acc.C0) - 1) // a level-l scratch has l+1 rows
		defer r.PutScratch(scratch)
		pts[i] = &ckks.ExtPlaintext{Lvl: v.Level, Rows: scratch.Coeffs}
	}
	errs := make([]error, chunk)
	for lo := 0; lo < len(xs); lo += chunk {
		n := min(chunk, len(xs)-lo)
		ring.ForEachLimb(n, func(i int) {
			vals, err := v.Plains[lo+i].Values(e.p.Slots)
			if err == nil {
				err = e.ctx.Enc.EncodeExtInto(vals, ev.Params().DefaultScale(), pts[i])
			}
			errs[i] = err
		})
		if err := errors.Join(errs[:n]...); err != nil {
			return err
		}
		ev.MulPlainExtAcc(xs[lo:lo+n], pts[:n], acc)
	}
	return nil
}

func (e *evalLowering) lower(v *Value) error {
	ev := e.ctx.Eval
	switch v.Op {
	case OpInput:
		ct, ok := e.inputs[v.Name]
		if !ok {
			return fmt.Errorf("missing input %q", v.Name)
		}
		if ct.Level() != v.Level {
			return fmt.Errorf("input %q at level %d, program expects %d", v.Name, ct.Level(), v.Level)
		}
		e.deg1[v] = ct

	case OpAdd, OpSub:
		if v.Degree == 2 {
			a, aok := e.deg2[v.Args[0]]
			b, bok := e.deg2[v.Args[1]]
			if !aok || !bok {
				return fmt.Errorf("degree-2 add over non-degree-2 operands")
			}
			if v.Op == OpSub {
				return fmt.Errorf("degree-2 subtraction is not lowered")
			}
			e.deg2[v] = ev.Add2(a, b)
			return nil
		}
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		b, err := e.ct(v.Args[1])
		if err != nil {
			return err
		}
		switch {
		case v.Op == OpSub:
			e.deg1[v] = ev.Sub(a, b)
		case e.dies(v.Args[0]):
			// No one else reads a: add into it, word for word Add's result.
			ev.AddAcc(b, a)
			e.deg1[v] = a
			e.adopt(v, v.Args[0])
		default:
			e.deg1[v] = ev.Add(a, b)
		}

	case OpNeg:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		e.deg1[v] = ev.Neg(a)

	case OpAddConst:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		if !e.dies(v.Args[0]) {
			e.deg1[v] = ev.AddConst(a, v.Const)
			return nil
		}
		ev.AddConstAcc(v.Const, a)
		e.deg1[v] = a
		e.adopt(v, v.Args[0])

	case OpMulConst:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		e.deg1[v] = ev.MulByConst(a, v.Const)

	case OpMulPlain:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		pt, err := encodePlain(e.ctx.Enc, v.Plain, e.p.Slots, a.Level())
		if err != nil {
			return err
		}
		e.deg1[v] = ev.MulPlain(a, pt)

	case OpMul:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		b, err := e.ct(v.Args[1])
		if err != nil {
			return err
		}
		e.deg2[v] = ev.MulNoRelin(a, b)

	case OpRelin:
		ct2, ok := e.deg2[v.Args[0]]
		if !ok {
			return fmt.Errorf("relinearization of a non-degree-2 operand")
		}
		e.close(v, ev.RelinearizeExt(ct2))

	case OpRescale:
		if acc, ok := e.open[v.Args[0]]; ok {
			delete(e.open, v.Args[0])
			e.deg1[v] = ev.ModDownExtRescale(acc)
			return nil
		}
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		e.deg1[v] = ev.Rescale(a)

	case OpModSwitch:
		// A view of the rows the drop keeps: nothing is copied.
		if ct2, ok := e.deg2[v.Args[0]]; ok {
			e.deg2[v] = ct2.ViewAtLevel(ct2.Level() - v.K)
		} else {
			a, err := e.ct(v.Args[0])
			if err != nil {
				return err
			}
			e.deg1[v] = a.ViewAtLevel(a.Level() - v.K)
		}
		e.adopt(v, v.Args[0])

	case OpRotate:
		if v.Hoist != 0 {
			m, err := e.hoistGroup(v)
			if err != nil {
				return err
			}
			e.deg1[v] = m[v.K]
			return nil
		}
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		e.deg1[v] = ev.Rotate(a, v.K)

	case OpConjugate:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		e.deg1[v] = ev.Conjugate(a)

	case OpRotBasket:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		if v.Closed {
			e.baskets[v] = ev.RotateHoistedClosed(a, v.Rots)
		} else {
			e.baskets[v] = ev.RotateHoistedExt(a, v.Rots)
		}

	case OpDiagMac:
		basket, ok := e.baskets[v.Args[0]]
		if !ok {
			return fmt.Errorf("diagmac over a non-basket operand")
		}
		xs := make([]*ckks.ExtCiphertext, len(v.Rots))
		var srcScale float64
		for i, k := range v.Rots {
			ext, ok := basket[k]
			if !ok {
				return fmt.Errorf("basket has no rotation %d", k)
			}
			xs[i] = ext
			srcScale = ext.Scale
		}
		newAcc := ev.NewExtAccumulator
		if v.Args[0].Closed {
			newAcc = ev.NewClosedAccumulator
		}
		acc := newAcc(v.Level, srcScale*ev.Params().DefaultScale())
		if err := e.diagMac(v, xs, acc); err != nil {
			ev.ReleaseExt(acc)
			return err
		}
		e.close(v, acc)

	case OpRotSum:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		exts := ev.RotateHoistedExt(a, v.Rots)
		acc := ev.NewExtAccumulator(a.Level(), a.Scale)
		for _, k := range v.Rots {
			ev.AddExtAcc(exts[k], acc)
		}
		for _, ext := range exts {
			ev.ReleaseExt(ext)
		}
		e.close(v, acc)

	default:
		return fmt.Errorf("op %s is not lowered", v.Op)
	}
	return nil
}
