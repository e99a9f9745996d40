package mapping

import (
	"fmt"

	"hydra/internal/fheop"
	"hydra/internal/task"
)

// MatVecOptions control the BSGS matrix-vector mapping (FC layers and the
// DFT levels inside bootstrapping).
type MatVecOptions struct {
	// BS and GS are the baby-step and giant-step counts, with bs·gs = 2·Radix
	// for a DFT level (Section III-B).
	BS, GS int
	// DistributedBS is the ablation variant the paper argues against
	// (Section III-B point (1)): baby-step rotations split across nodes and
	// all-gathered, instead of every node performing them uniformly.
	DistributedBS bool
	// StarAggregation is the ablation variant of point (2): partial sums all
	// sent to the first card instead of the tree pattern of Fig. 3(d).
	StarAggregation bool
}

// MatVec emits one BSGS ciphertext-vector × plaintext-matrix product across
// the context's cards (Fig. 3(d)):
//
//   - every card performs the bs baby-step rotations (uniform bs);
//   - the gs giant steps are split evenly: each giant step costs bs PMults,
//     bs-1 HAdds and one rotation, plus the local partial accumulation;
//   - partials are aggregated pairwise in a tree with one HAdd per round and
//     the result is broadcast back (log2(Cn)+1 communications, Eq. 1).
//
// This hand-counted emitter is the pinned baseline of the paper-figure
// experiments. The same transform written with fhir's LinTrans frontend and
// lowered by fhir.BuildTaskProgram needs fewer keyswitches, since the pass
// pipeline hoists the shared baby-step rotations through one decomposition
// (TestMatVecHandCountAboveCompiled).
func (c *Context) MatVec(opts MatVecOptions, label string) error {
	c.B.Step(label)
	return c.emitMatVec(opts, label)
}

// emitMatVec emits the mapping into the builder's current step.
func (c *Context) emitMatVec(opts MatVecOptions, label string) error {
	if opts.BS <= 0 || opts.GS <= 0 {
		return fmt.Errorf("mapping: %s: bs and gs must be positive (bs=%d gs=%d)", label, opts.BS, opts.GS)
	}
	nc := len(c.Cards)
	if !isPow2(nc) {
		return fmt.Errorf("mapping: %s: card count %d must be a power of two for tree aggregation", label, nc)
	}
	limbs := c.limbs()
	bytes := c.CtBytes()

	// --- Baby steps ---------------------------------------------------------
	gate := make(map[int]int) // card -> recv index its giant-step work waits on
	if !opts.DistributedBS {
		for _, card := range c.Cards {
			c.B.Compute(card, fheop.Of(fheop.Rotation, opts.BS), limbs, label)
		}
	} else {
		// Ablation: split the bs rotations, then all-gather the rotated
		// ciphertexts so every card can run its giant steps.
		for ci, card := range c.Cards {
			share := perCardShare(opts.BS, nc, ci)
			if share == 0 {
				continue
			}
			h := c.B.Compute(card, fheop.Of(fheop.Rotation, share), limbs, label)
			if nc > 1 {
				others := c.others(card)
				recvs := c.B.Send(card, h, others, float64(share)*bytes, label)
				for di, dst := range others {
					gate[dst] = recvs[di] // later recvs supersede earlier ones
				}
			}
		}
	}

	// --- Giant steps and local accumulation ---------------------------------
	partials := make([]task.Handle, nc)
	for ci, card := range c.Cards {
		share := perCardShare(opts.GS, nc, ci)
		ops := fheop.Of(
			fheop.PMult, opts.BS*share,
			fheop.HAdd, (opts.BS-1)*share,
			fheop.Rotation, share,
		)
		if share > 1 {
			ops = ops.Add(fheop.Of(fheop.HAdd, share-1)) // local partial sum
		}
		if g, ok := gate[card]; ok {
			partials[ci] = c.B.ComputeAfterRecv(card, g, ops, limbs, label)
		} else {
			partials[ci] = c.B.Compute(card, ops, limbs, label)
		}
	}

	// --- Aggregation ---------------------------------------------------------
	root := c.Cards[0]
	rootResult := partials[0]
	if nc > 1 {
		if opts.StarAggregation {
			lastRecv := -1
			for ci := 1; ci < nc; ci++ {
				recvs := c.B.Send(c.Cards[ci], partials[ci], []int{root}, bytes, label)
				lastRecv = recvs[0]
			}
			rootResult = c.B.ComputeAfterRecv(root, lastRecv, fheop.Of(fheop.HAdd, nc-1), limbs, label)
		} else {
			// Tree: log2(nc) rounds; in round r the upper half of the active
			// set sends to its mirror, which adds (Fig. 3(d)).
			active := nc
			latest := append([]task.Handle(nil), partials...)
			for active > 1 {
				half := active / 2
				for i := 0; i < half; i++ {
					src := c.Cards[i+half]
					dst := c.Cards[i]
					recvs := c.B.Send(src, latest[i+half], []int{dst}, bytes, label)
					latest[i] = c.B.ComputeAfterRecv(dst, recvs[0], fheop.Of(fheop.HAdd, 1), limbs, label)
				}
				active = half
			}
			rootResult = latest[0]
		}
		// Redistribute the aggregate (the "+1" communication of Eq. 1).
		c.B.Send(root, rootResult, c.others(root), bytes, label)
	}
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
	return c.MatVec(MatVecOptions{BS: 1, GS: diagonals}, label)
}
