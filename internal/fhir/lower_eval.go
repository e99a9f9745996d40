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

// Evaluate executes a legalized program, each value's ID its index in
// p.Values as the passes leave it, on the functional CKKS evaluator. Inputs
// maps input names to ciphertexts, each at the program's InputLevel and
// canonical scale. Fused ops lower onto the extended-basis machinery:
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
	if err := e.run(context.TODO(), p.Values, []*Value{p.Output}); err != nil {
		return nil, err
	}
	s := e.slots[p.Output.ID]
	if s.ct == nil {
		return nil, fmt.Errorf("fhir: output v%d did not lower to a degree-1 ciphertext", p.Output.ID)
	}
	if !s.owned {
		// An input, a view that may share an input's rows, or rows a live
		// view pinned: the caller gets rows of its own.
		return s.ct.CopyNew(), nil
	}
	return s.ct, nil
}

// evalLowering runs values of one program on the functional evaluator. Both
// Evaluate (every value) and each LowerCluster kernel (a card's share) run
// through it.
type evalLowering struct {
	p      *Program
	ctx    EvalContext
	inputs map[string]*ckks.Ciphertext
	vals   []*Value // what run is lowering; hoist groups draw from it
	slots  []slot   // by Value.ID
}

// slot is what a run holds for one value: its result, while a reader is
// still to lower, and the facts that decide when its rows go back.
type slot struct {
	ct     *ckks.Ciphertext
	ct2    *ckks.Ciphertext2
	basket map[int]*ckks.ExtCiphertext
	acc    *ckks.ExtCiphertext      // a fused value's accumulator, open until its Rescale
	group  map[int]*ckks.Ciphertext // the tier-A group over this value: rotation -> result no reader has taken

	left  int  // readers in the run not yet lowered, plus one if the caller reads it
	owned bool // the run made the rows and releases them at the last reader
	fuse  bool // a Rescale in the run reads this Relin, DiagMac or RotSum
}

func newEvalLowering(p *Program, ctx EvalContext, inputs map[string]*ckks.Ciphertext) *evalLowering {
	return &evalLowering{p: p, ctx: ctx, inputs: inputs, slots: make([]slot, len(p.Values))}
}

// run lowers vals in order, checking ctx between values; a value's operands
// must be among vals or already bound in their slots. It first counts each
// value's readers in vals, and one more for each of outs, which the caller
// reads after. A value retires once its count reaches zero, its rows back
// in the pool if it owns them: an out never does. A value owns its rows
// unless it is an input; a hoist-group rotation takes its result out of its
// source's group, and a view or an in-place op adopts its operand's rows
// (adopt). An error or a recovered panic comes back naming the failing value,
// every row the run still owns released, group results no rotation took
// included.
//
// A Relin, DiagMac or RotSum whose one reader is a Rescale in vals is fused:
// that Rescale closes its accumulator with ModDownExtRescale, and the value
// itself is never materialized. A DiagMac over a closed basket has no
// ModDown for the Rescale to ride, so it never fuses. A Rescale outside vals
// — the output wrapper a multi-card lowering peels onto card 0 — does not
// fuse with its operand in an earlier run; it need not, both forms being
// equal word for word.
func (e *evalLowering) run(ctx context.Context, vals, outs []*Value) (err error) {
	e.vals = vals
	var v *Value
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fhir: evaluate v%d (%s): panic: %v", v.ID, v.Op, r)
		}
		if err != nil {
			for _, w := range vals {
				e.release(&e.slots[w.ID])
			}
		}
	}()
	for _, v = range vals {
		for _, a := range v.Args {
			e.slots[a.ID].left++
		}
		if a := v.Args; v.Op == OpRescale && (a[0].Op == OpRelin || a[0].Op == OpRotSum ||
			a[0].Op == OpDiagMac && !a[0].Args[0].Closed) {
			e.slots[a[0].ID].fuse = true
		}
	}
	for _, v = range outs {
		e.slots[v.ID].left++
	}
	for _, v = range vals {
		err := ctx.Err()
		if err == nil {
			e.slots[v.ID].owned = v.Op != OpInput
			err = e.lower(v, &e.slots[v.ID])
		}
		if err != nil {
			return fmt.Errorf("fhir: evaluate v%d (%s): %w", v.ID, v.Op, err)
		}
		for _, a := range v.Args {
			s := &e.slots[a.ID]
			if s.left--; s.left == 0 {
				e.release(s)
				*s = slot{}
			}
		}
	}
	return nil
}

// dies reports that the value lowering now is a's last reader and a's rows
// are the run's: that value may write into them.
func (e *evalLowering) dies(a *Value) bool { return e.slots[a.ID].owned && e.slots[a.ID].left == 1 }

// adopt hands a's rows to s, whose value views them or wrote into them: it
// owns them when a did and is a's last reader. A view of a value that lives
// on pins it, never released, so a owns nothing either way.
func (e *evalLowering) adopt(s *slot, a *Value) {
	s.owned = e.dies(a)
	e.slots[a.ID].owned = false
}

// release returns an owned slot's rows to the ring pool, and the results of
// its group no rotation took. A slot holds one result of its own.
func (e *evalLowering) release(s *slot) {
	for _, ct := range s.group {
		e.ctx.Eval.Release(ct)
	}
	switch ev := e.ctx.Eval; {
	case !s.owned:
	case s.ct != nil:
		ev.Release(s.ct)
	case s.ct2 != nil:
		ev.Release2(s.ct2)
	case s.acc != nil:
		ev.ReleaseExt(s.acc)
	default:
		for _, ext := range s.basket {
			ev.ReleaseExt(ext)
		}
	}
}

// close binds s's accumulator: held open for the Rescale that is its value's
// one reader, closed by ModDownExt otherwise.
func (e *evalLowering) close(s *slot, acc *ckks.ExtCiphertext) {
	if s.fuse && s.left == 1 {
		s.acc = acc
		return
	}
	s.ct = e.ctx.Eval.ModDownExt(acc)
}

func (e *evalLowering) ct(v *Value) (*ckks.Ciphertext, error) {
	if ct := e.slots[v.ID].ct; ct != nil {
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

// hoistGroup takes v's result out of its tier-A group, which it materializes
// on first touch, on its source's slot: one RotateHoisted call covering every
// rotation of the group that run is lowering. A rotation's result does not
// depend on which others share its call.
func (e *evalLowering) hoistGroup(v *Value) (*ckks.Ciphertext, error) {
	src := &e.slots[v.Args[0].ID]
	if src.group == nil {
		ct, err := e.ct(v.Args[0])
		if err != nil {
			return nil, err
		}
		var rots []int
		for _, w := range e.vals {
			if w.Op == OpRotate && w.Hoist == v.Hoist {
				rots = append(rots, w.K)
			}
		}
		src.group = e.ctx.Eval.RotateHoisted(ct, rots)
	}
	ct, ok := src.group[v.K]
	if !ok {
		return nil, fmt.Errorf("hoist group %d has no rotation %d left", v.Hoist, v.K)
	}
	delete(src.group, v.K)
	return ct, nil
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
	rows := len(acc.C0)
	scratch := r.GetRows(chunk * rows)
	defer r.PutRows(scratch...)
	for i := range pts {
		pts[i] = &ckks.ExtPlaintext{Lvl: v.Level, Rows: scratch[i*rows : (i+1)*rows]}
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

func (e *evalLowering) lower(v *Value, s *slot) error {
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
		s.ct = ct

	case OpAdd, OpSub:
		if v.Degree == 2 {
			a, b := e.slots[v.Args[0].ID].ct2, e.slots[v.Args[1].ID].ct2
			if a == nil || b == nil {
				return fmt.Errorf("degree-2 add over non-degree-2 operands")
			}
			if v.Op == OpSub {
				return fmt.Errorf("degree-2 subtraction is not lowered")
			}
			s.ct2 = ev.Add2(a, b)
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
			s.ct = ev.Sub(a, b)
		case e.dies(v.Args[0]):
			// No one else reads a: add into it, word for word Add's result.
			ev.AddAcc(b, a)
			s.ct = a
			e.adopt(s, v.Args[0])
		default:
			s.ct = ev.Add(a, b)
		}

	case OpNeg:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		s.ct = ev.Neg(a)

	case OpAddConst:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		if !e.dies(v.Args[0]) {
			s.ct = ev.AddConst(a, v.Const)
			return nil
		}
		ev.AddConstAcc(v.Const, a)
		s.ct = a
		e.adopt(s, v.Args[0])

	case OpMulConst:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		s.ct = ev.MulByConst(a, v.Const)

	case OpMulPlain:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		pt, err := encodePlain(e.ctx.Enc, v.Plain, e.p.Slots, a.Level())
		if err != nil {
			return err
		}
		s.ct = ev.MulPlain(a, pt)

	case OpMul:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		b, err := e.ct(v.Args[1])
		if err != nil {
			return err
		}
		s.ct2 = ev.MulNoRelin(a, b)

	case OpRelin:
		ct2 := e.slots[v.Args[0].ID].ct2
		if ct2 == nil {
			return fmt.Errorf("relinearization of a non-degree-2 operand")
		}
		e.close(s, ev.RelinearizeExt(ct2))

	case OpRescale:
		if a := &e.slots[v.Args[0].ID]; a.acc != nil {
			s.ct = ev.ModDownExtRescale(a.acc)
			a.acc = nil
			return nil
		}
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		s.ct = ev.Rescale(a)

	case OpModSwitch:
		// A view of the rows the drop keeps: nothing is copied.
		if ct2 := e.slots[v.Args[0].ID].ct2; ct2 != nil {
			s.ct2 = ct2.ViewAtLevel(ct2.Level() - v.K)
		} else {
			a, err := e.ct(v.Args[0])
			if err != nil {
				return err
			}
			s.ct = a.ViewAtLevel(a.Level() - v.K)
		}
		e.adopt(s, v.Args[0])

	case OpRotate:
		if v.Hoist != 0 {
			ct, err := e.hoistGroup(v)
			s.ct = ct
			return err
		}
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		s.ct = ev.Rotate(a, v.K)

	case OpConjugate:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		s.ct = ev.Conjugate(a)

	case OpRotBasket:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		if v.Closed {
			s.basket = ev.RotateHoistedClosed(a, v.Rots)
		} else {
			s.basket = ev.RotateHoistedExt(a, v.Rots)
		}

	case OpDiagMac:
		basket := e.slots[v.Args[0].ID].basket
		if basket == nil {
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
		e.close(s, acc)

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
		e.close(s, acc)

	default:
		return fmt.Errorf("op %s is not lowered", v.Op)
	}
	return nil
}
