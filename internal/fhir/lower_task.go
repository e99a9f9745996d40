package fhir

import (
	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/task"
)

// opCounts converts one IR value into the fheop vocabulary the scheduler
// dispatches and the accelerator model costs.
//
// The CMult entry of the cost model bundles the tensor product with its
// relinearization keyswitch, so the split Mul/Relin form the IR uses maps
// back as follows: a Mul whose relinearization follows directly is one
// CMult (and the Relin itself is free); a Mul kept at degree 2 by the
// lazy-relinearization pass is charged the three component products as
// PMults, and the one deferred Relin of the fold is the KeySwitch it
// actually costs. The fused extended-basis forms keep their per-rotation
// keyswitches (Rotation) — what they save at runtime is decompositions and
// ModDowns, which the static op vocabulary does not price.
func opCounts(v *Value, relinFused, mulFused map[*Value]bool) fheop.Counts {
	switch v.Op {
	case OpAdd, OpSub, OpNeg, OpAddConst:
		return fheop.Of(fheop.HAdd, 1)
	case OpMulConst, OpMulPlain:
		return fheop.Of(fheop.PMult, 1)
	case OpMul:
		if mulFused[v] {
			return fheop.Of(fheop.CMult, 1)
		}
		return fheop.Of(fheop.PMult, 3)
	case OpRelin:
		if relinFused[v] {
			return fheop.Counts{}
		}
		return fheop.Of(fheop.KeySwitch, 1)
	case OpRescale:
		return fheop.Of(fheop.Rescale, 1)
	case OpRotate:
		return fheop.Of(fheop.Rotation, 1)
	case OpConjugate:
		return fheop.Of(fheop.Conjugate, 1)
	case OpRotBasket:
		return fheop.Of(fheop.Rotation, nonzeroRots(v.Rots))
	case OpDiagMac:
		return fheop.Of(fheop.PMult, len(v.Rots), fheop.HAdd, len(v.Rots)-1)
	case OpRotSum:
		return fheop.Of(fheop.Rotation, nonzeroRots(v.Rots), fheop.HAdd, len(v.Rots)-1)
	default: // OpInput, OpModSwitch: no accelerator work
		return fheop.Counts{}
	}
}

// fusionSets classifies Mul/Relin pairs: a Relin directly over a Mul is
// fused into that Mul's CMult.
func fusionSets(p *Program) (relinFused, mulFused map[*Value]bool) {
	relinFused = map[*Value]bool{}
	mulFused = map[*Value]bool{}
	for _, v := range p.Values {
		if v.Op == OpRelin && v.Args[0].Op == OpMul {
			relinFused[v] = true
			mulFused[v.Args[0]] = true
		}
	}
	return
}

// BuildTaskProgram lowers a legalized program onto cards 0..cards-1 as a
// multi-card task-queue schedule, Hydra's static compilation target: one step
// named after the label holding the partition's shares as computes, its
// reduction tree as send + receive-and-add pairs, and the output wrappers on
// card 0. It validates and returns the task program. Every compute is priced
// at the input level, and every send at the level of the partial it carries:
// the sum of terms, under the output wrappers.
func BuildTaskProgram(p *Program, scheme hw.SchemeParams, cards, cardsPerServer int, label string) (*task.Program, error) {
	pt, err := partitionFor(p, cards)
	if err != nil {
		return nil, err
	}
	relinFused, mulFused := fusionSets(p)
	limbs := p.InputLevel + 1
	sum := p.Output
	if len(pt.wrappers) > 0 {
		sum = pt.wrappers[0].Args[0]
	}
	bytes := float64(scheme.CiphertextBytes(sum.Level + 1))

	b := task.NewBuilder(cards, cardsPerServer)
	b.Step(label)
	partials := make([]task.Handle, len(pt.shares))
	for c, sh := range pt.shares {
		ops := fheop.Of(fheop.HAdd, len(sh.terms)-1)
		for _, v := range sh.vals {
			ops = ops.Add(opCounts(v, relinFused, mulFused))
		}
		partials[c] = b.Compute(c, ops, limbs, label)
	}
	for _, e := range pt.tree {
		recvs := b.Send(e.From, partials[e.From], []int{e.To}, bytes, label)
		partials[e.To] = b.ComputeAfterRecv(e.To, recvs[0], fheop.Of(fheop.HAdd, 1), limbs, label)
	}
	wrapOps := fheop.Counts{}
	for _, w := range pt.wrappers {
		wrapOps = wrapOps.Add(opCounts(w, nil, nil))
	}
	if wrapOps != (fheop.Counts{}) {
		b.Compute(0, wrapOps, limbs, label)
	}
	tp := b.Build()
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	return tp, nil
}
