package fhir

import (
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
// MulPlainExtAcc + one ModDownExt, RotSum → AddExtAcc folds; tier-A
// hoist groups share one RotateHoisted decomposition. The evaluator reports
// contract violations (a missing rotation or relinearization key, a rescale
// at level 0) by panicking; one raised on the calling goroutine comes back as
// the failing value's error.
func Evaluate(p *Program, ctx EvalContext, inputs map[string]*ckks.Ciphertext) (out *ckks.Ciphertext, err error) {
	if !p.Legal {
		return nil, fmt.Errorf("fhir: Evaluate needs a legalized program")
	}
	if ctx.Eval == nil || ctx.Enc == nil {
		return nil, fmt.Errorf("fhir: Evaluate needs an evaluator and an encoder")
	}
	e := &evalLowering{
		p: p, ctx: ctx, inputs: inputs,
		deg1:    map[*Value]*ckks.Ciphertext{},
		deg2:    map[*Value]*ckks.Ciphertext2{},
		baskets: map[*Value]map[int]*ckks.ExtCiphertext{},
		hoisted: map[int]map[int]*ckks.Ciphertext{},
	}
	var v *Value
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("fhir: evaluate v%d (%s): panic: %v", v.ID, v.Op, r)
		}
	}()
	defer e.releaseBaskets()
	for _, v = range p.Values {
		if err := e.lower(v); err != nil {
			return nil, fmt.Errorf("fhir: evaluate v%d (%s): %w", v.ID, v.Op, err)
		}
	}
	out, ok := e.deg1[p.Output]
	if !ok {
		return nil, fmt.Errorf("fhir: output v%d did not lower to a degree-1 ciphertext", p.Output.ID)
	}
	return out, nil
}

type evalLowering struct {
	p      *Program
	ctx    EvalContext
	inputs map[string]*ckks.Ciphertext

	deg1    map[*Value]*ckks.Ciphertext
	deg2    map[*Value]*ckks.Ciphertext2
	baskets map[*Value]map[int]*ckks.ExtCiphertext
	hoisted map[int]map[int]*ckks.Ciphertext // tier-A group id -> rot -> result
}

// releaseBaskets returns every surviving extended-basis row to the ring pool.
// Basket entries are read, never consumed (only the DiagMac accumulator is),
// so they are all still live here.
func (e *evalLowering) releaseBaskets() {
	for _, basket := range e.baskets {
		for _, ext := range basket {
			e.ctx.Eval.ReleaseExt(ext)
		}
	}
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
// call covering every rotation in the group.
func (e *evalLowering) hoistGroup(v *Value) (map[int]*ckks.Ciphertext, error) {
	if m, ok := e.hoisted[v.Hoist]; ok {
		return m, nil
	}
	src, err := e.ct(v.Args[0])
	if err != nil {
		return nil, err
	}
	var rots []int
	for _, w := range e.p.Values {
		if w.Op == OpRotate && w.Hoist == v.Hoist {
			rots = append(rots, w.K)
		}
	}
	m := e.ctx.Eval.RotateHoisted(src, rots)
	e.hoisted[v.Hoist] = m
	return m, nil
}

// diagMac folds Σ xs[i] ⊙ encode(v.Plains[i]) into acc a chunk of diagonals
// at a time: the chunk is encoded as independent tasks on the limb pool (FFT
// included; each task's row fan-out runs inline once the pool is busy) into
// pooled scratch, then folded by one MulPlainExtAcc. Every chunk reuses the
// scratch, handed back on return: no plaintext outlives the call. Terms fold
// in v.Rots order, so neither worker count nor chunking changes the result.
func (e *evalLowering) diagMac(v *Value, xs []*ckks.ExtCiphertext, acc *ckks.ExtCiphertext) error {
	ev := e.ctx.Eval
	r := ev.Params().RingQP()
	chunk := min(4*ring.MaxWorkers(), len(xs)) // he-rot: 199 ms at 1 per worker, 175 at 4, 177 unchunked
	pts := make([]*ckks.ExtPlaintext, chunk)
	for i := range pts {
		scratch := r.GetScratch(ev.Params().ExtRows(v.Level) - 1) // a level-l scratch has l+1 rows
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
		if v.Op == OpAdd {
			e.deg1[v] = ev.Add(a, b)
		} else {
			e.deg1[v] = ev.Sub(a, b)
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
		e.deg1[v] = ev.AddConst(a, v.Const)

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
		e.deg1[v] = ev.Relinearize(ct2)

	case OpRescale:
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		e.deg1[v] = ev.Rescale(a)

	case OpModSwitch:
		if ct2, ok := e.deg2[v.Args[0]]; ok {
			out := ct2.CopyNew()
			out.DropLevel(v.K)
			e.deg2[v] = out
			return nil
		}
		a, err := e.ct(v.Args[0])
		if err != nil {
			return err
		}
		out := a.CopyNew()
		out.DropLevel(v.K)
		e.deg1[v] = out

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
		e.baskets[v] = ev.RotateHoistedExt(a, v.Rots)

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
		acc := ev.NewExtAccumulator(v.Level, srcScale*ev.Params().DefaultScale())
		if err := e.diagMac(v, xs, acc); err != nil {
			ev.ReleaseExt(acc)
			return err
		}
		e.deg1[v] = ev.ModDownExt(acc)

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
		e.deg1[v] = ev.ModDownExt(acc)

	default:
		return fmt.Errorf("op %s is not lowered", v.Op)
	}
	return nil
}
