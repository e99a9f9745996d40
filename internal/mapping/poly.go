package mapping

import (
	"fmt"

	"hydra/internal/fheop"
	"hydra/internal/task"
)

// PolyEval emits the multi-card polynomial evaluation of Algorithm 1 for a
// polynomial of the given degree (non-linear layers: ReLU, GeLU, Softmax
// approximations, and the EvaExp step of bootstrapping).
//
// The strategy follows the paper:
//   - tree_depth = min(poly_depth-2, log2(cards)) card-tree levels, so
//     sub-polynomials of degree ≤ 4 are never split across cards;
//   - every participating card computes x² locally;
//   - the binary powers x^(2^(j+1)) are computed by a shrinking set of
//     low-numbered cards and forwarded to the cards that stopped computing
//     them ("assign the communication tasks receiving from the previous step
//     to nodes with larger numbers");
//   - each card evaluates its shared sub-polynomial block;
//   - results fold back to card 0 in a tree, one multiply-and-send plus one
//     receive-and-add per round.
//
// This hand-scheduled emitter is the pinned baseline of the paper-figure
// experiments. A concrete coefficient vector goes through the internal/fhir
// compiler instead (the Horner frontend), where rescale placement and lazy
// relinearization come from the pass pipeline rather than Algorithm 1's hand
// recipe.
func (c *Context) PolyEval(degree int, label string) error {
	c.B.Step(label)
	return c.emitPolyEval(degree, label)
}

// emitPolyEval emits Algorithm 1 into the builder's current step (so several
// card groups can run side by side within one step).
func (c *Context) emitPolyEval(degree int, label string) error {
	if degree < 1 {
		return fmt.Errorf("mapping: %s: polynomial degree must be >= 1", label)
	}
	polyDepth := log2int(degree + 1)
	nc := len(c.Cards)
	if !isPow2(nc) {
		return fmt.Errorf("mapping: %s: card count %d must be a power of two", label, nc)
	}
	cardDepth := log2int(nc)
	treeDepth := polyDepth - 2
	if treeDepth > cardDepth {
		treeDepth = cardDepth
	}
	if treeDepth < 0 {
		treeDepth = 0
	}
	cardNum := 1 << treeDepth
	limbs := c.limbs()
	bytes := c.CtBytes()

	// latest[i] tracks the most recent compute handle of active card i;
	// pendingRecv[i] a receive the next compute must wait on (CAR).
	latest := make([]task.Handle, cardNum)
	pendingRecv := make([]int, cardNum)
	for i := range pendingRecv {
		pendingRecv[i] = -1
	}
	compute := func(i int, ops fheop.Counts) {
		card := c.Cards[i]
		if pendingRecv[i] >= 0 {
			latest[i] = c.B.ComputeAfterRecv(card, pendingRecv[i], ops, limbs, label)
			pendingRecv[i] = -1
		} else {
			latest[i] = c.B.Compute(card, ops, limbs, label)
		}
	}

	// Phase 1: x² everywhere, then the higher binary powers on a shrinking
	// prefix of cards, each forwarded to the cards that dropped out.
	for i := 0; i < cardNum; i++ {
		compute(i, fheop.Of(fheop.CMult, 1))
	}
	for j := 1; j <= polyDepth-2; j++ {
		senders := cardNum >> j
		if senders < 1 {
			senders = 1
		}
		for i := 0; i < senders; i++ {
			compute(i, fheop.Of(fheop.CMult, 1)) // x^(2^(j+1))
			// Forward to the cards in this card's coverage block that no
			// longer compute powers themselves.
			var dsts []int
			for m := i + senders; m < cardNum; m += senders {
				dsts = append(dsts, c.Cards[m])
			}
			if len(dsts) > 0 {
				recvs := c.B.Send(c.Cards[i], latest[i], dsts, bytes, label)
				for di, m := 0, i+senders; m < cardNum; m += senders {
					pendingRecv[m] = recvs[di]
					di++
				}
			}
		}
	}

	// Phase 2: shared sub-polynomial work. k = poly_depth - tree_depth - 2;
	// each card runs 2^(k+1) add-and-multiply-const tasks and the
	// multiply-and-add reduction ladder.
	k := polyDepth - treeDepth - 2
	if k < 0 {
		k = 0
	}
	for i := 0; i < cardNum; i++ {
		compute(i, fheop.Of(fheop.PMult, 1<<(k+1), fheop.HAdd, 1<<(k+1)))
		ladder := fheop.Counts{}
		for j := 0; j <= k; j++ {
			ladder = ladder.Add(fheop.Of(fheop.CMult, 1<<(k-j), fheop.HAdd, 1<<(k-j)))
		}
		compute(i, ladder)
	}

	// Phase 3: tree aggregation to card 0 (task.Reduction) — the sender
	// multiplies its partial by the appropriate power and sends; the
	// receiver adds.
	var tree [64]task.Edge
	for _, e := range task.Reduction(tree[:0], cardNum) {
		compute(e.From, fheop.Of(fheop.CMult, 1)) // multiply_and_send
		recvs := c.B.Send(c.Cards[e.From], latest[e.From], []int{c.Cards[e.To]}, bytes, label)
		pendingRecv[e.To] = recvs[0]
		compute(e.To, fheop.Of(fheop.HAdd, 1)) // receive_and_add
	}
	return nil
}

// PolyEvalCounts returns the operation counts of a single-card tree
// evaluation of a degree-d polynomial (used when whole evaluations stay
// local because the layer has more ciphertexts than there are cards).
func PolyEvalCounts(degree int) fheop.Counts {
	if degree < 1 {
		return fheop.Counts{}
	}
	polyDepth := log2int(degree + 1)
	// Binary powers x^2 … x^(2^(polyDepth-1)).
	ops := fheop.Of(fheop.CMult, polyDepth-1)
	if polyDepth < 2 {
		ops = fheop.Counts{}
	}
	// Leaf blocks: one PMult+HAdd per odd block of coefficients, then the
	// pairwise combine ladder: deg/2^j CMult+HAdd at each tree level.
	blocks := (degree + 1 + 1) / 2
	ops = ops.Add(fheop.Of(fheop.PMult, blocks, fheop.HAdd, blocks))
	for sz := 2; sz <= blocks; sz <<= 1 {
		ops = ops.Add(fheop.Of(fheop.CMult, blocks/sz, fheop.HAdd, blocks/sz))
	}
	return ops
}

// NonLinear maps a non-linear layer with `units` parallel polynomial
// evaluations of degree `degree` (the Table I parallelism), producing
// outputCts packed activation ciphertexts that are redistributed for the
// next layer. With at least as many units as cards, evaluations stay local;
// otherwise each evaluation is split across a card group via Algorithm 1.
func (c *Context) NonLinear(units, degree, outputCts int, label string) error {
	if units <= 0 {
		return fmt.Errorf("mapping: %s: unit count must be positive", label)
	}
	if units >= len(c.Cards) {
		return c.DistributeBroadcast(units, PolyEvalCounts(degree), outputCts, label)
	}
	return c.inGroups(units, groupSize(units, len(c.Cards)), label, func(sub *Context) error {
		return sub.emitPolyEval(degree, label)
	})
}
