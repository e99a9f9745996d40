package mapping

import (
	"fmt"

	"hydra/internal/fheop"
	"hydra/internal/task"
)

// MatVec emits one BSGS ciphertext-vector × plaintext-matrix product with bs
// baby steps and gs giant steps across the context's cards (Fig. 3(d); a DFT
// level has bs·gs = 2·Radix, Section III-B):
//
//   - every card performs the bs baby-step rotations (uniform bs);
//   - the gs giant steps are split evenly: each giant step costs bs PMults,
//     bs-1 HAdds and one rotation, plus the local partial accumulation;
//   - partials are aggregated pairwise in a tree (task.Reduction) with one
//     HAdd per round and the result is broadcast back (log2(Cn)+1
//     communications, Eq. 1).
//
// This hand-counted emitter is the pinned baseline of the paper-figure
// experiments. The same transform written with fhir's LinTrans frontend and
// lowered by fhir.BuildTaskProgram needs fewer keyswitches, since the pass
// pipeline hoists the shared baby-step rotations through one decomposition
// (TestMatVecHandCountAboveCompiled).
func (c *Context) MatVec(bs, gs int, label string) error {
	c.B.Step(label)
	return c.emitMatVec(bs, gs, label)
}

// emitMatVec emits the mapping into the builder's current step.
func (c *Context) emitMatVec(bs, gs int, label string) error {
	if bs <= 0 || gs <= 0 {
		return fmt.Errorf("mapping: %s: bs and gs must be positive (bs=%d gs=%d)", label, bs, gs)
	}
	nc := len(c.Cards)
	if !isPow2(nc) {
		return fmt.Errorf("mapping: %s: card count %d must be a power of two for tree aggregation", label, nc)
	}
	limbs := c.limbs()
	bytes := c.CtBytes()

	// Baby steps, on every card.
	for _, card := range c.Cards {
		c.B.Compute(card, fheop.Of(fheop.Rotation, bs), limbs, label)
	}
	// Giant steps and local accumulation.
	partials := make([]task.Handle, nc)
	for ci, card := range c.Cards {
		share := perCardShare(gs, nc, ci)
		ops := fheop.Of(
			fheop.PMult, bs*share,
			fheop.HAdd, (bs-1)*share,
			fheop.Rotation, share,
		)
		if share > 1 {
			ops = ops.Add(fheop.Of(fheop.HAdd, share-1)) // local partial sum
		}
		partials[ci] = c.B.Compute(card, ops, limbs, label)
	}
	if nc == 1 {
		return nil
	}
	// Tree aggregation onto the first card, then the redistribution of the
	// aggregate (the "+1" communication of Eq. 1).
	var tree [64]task.Edge
	for _, e := range task.Reduction(tree[:0], nc) {
		dst := c.Cards[e.To]
		recvs := c.B.Send(c.Cards[e.From], partials[e.From], []int{dst}, bytes, label)
		partials[e.To] = c.B.ComputeAfterRecv(dst, recvs[0], fheop.Of(fheop.HAdd, 1), limbs, label)
	}
	c.B.Send(c.Cards[0], partials[0], c.others(c.Cards[0]), bytes, label)
	return nil
}

// FC maps a fully connected layer: a ciphertext-vector × plaintext-weight
// product with `diagonals` non-zero diagonals in the form Table I counts it
// (one Rotation and one PMult per diagonal). The rotations are spread evenly
// over the cards and the partial sums fold back through the tree — the
// paper's point that "the acceleration of the FC layer hinges on the
// distribution of rotate operations across multiple nodes", and the source
// of the >50× FC speedup of Fig. 6.
func (c *Context) FC(diagonals int, label string) error {
	if diagonals <= 0 {
		return fmt.Errorf("mapping: %s: diagonal count must be positive", label)
	}
	return c.MatVec(1, diagonals, label)
}
