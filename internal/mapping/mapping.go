// Package mapping implements the task decomposition and mapping strategies
// of Section III of the paper: the ring-broadcast convolution mapping
// (Figs. 1-2), the BSGS matrix-vector mapping shared by FC layers and the
// bootstrapping DFT (Fig. 3(d), Eq. 1), the multi-card polynomial-evaluation
// mapping of Algorithm 1, the embarrassingly parallel PCMM/CCMM mapping, and
// the full bootstrapping pipeline (C2S → EvaExp → DAF → S2C). Each strategy
// appends task-queue programs to a task.Builder; the simulator executes them.
package mapping

import (
	"fmt"

	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/task"
)

// Recipes of one parallel unit per procedure, from Table I of the paper.
var (
	// ConvBNUnit: 8 Rotations, 2 PMults, 7 HAdds per kernel-group subtask.
	ConvBNUnit = fheop.Of(fheop.Rotation, 8, fheop.PMult, 2, fheop.HAdd, 7)
	// PoolUnit: 2 Rotations, 1 PMult per channel.
	PoolUnit = fheop.Of(fheop.Rotation, 2, fheop.PMult, 1)
	// FCUnit: 1 Rotation, 1 PMult per weight diagonal.
	FCUnit = fheop.Of(fheop.Rotation, 1, fheop.PMult, 1)
	// PCMMUnit: 1 Rotation, 1 PMult per plaintext-ciphertext product task.
	PCMMUnit = fheop.Of(fheop.Rotation, 1, fheop.PMult, 1)
	// CCMMUnit: 7 Rotations, 1 CMult, 1 PMult, 6 HAdds.
	CCMMUnit = fheop.Of(fheop.Rotation, 7, fheop.CMult, 1, fheop.PMult, 1, fheop.HAdd, 6)
	// NonlinearUnit: 8 CMults, 15 HAdds per polynomial-evaluation unit.
	NonlinearUnit = fheop.Of(fheop.CMult, 8, fheop.HAdd, 15)
)

// Context carries the shared state of a mapping session.
type Context struct {
	B      *task.Builder
	Scheme hw.SchemeParams
	Cards  []int // participating card IDs (global numbering)
	Limbs  int   // limb count ops are charged at (0 = scheme effective limb)
}

// NewContext builds a context over cards 0..cards-1.
func NewContext(b *task.Builder, scheme hw.SchemeParams, cards int) *Context {
	ids := make([]int, cards)
	for i := range ids {
		ids[i] = i
	}
	return &Context{B: b, Scheme: scheme, Cards: ids}
}

// WithCards returns a copy of the context restricted to the given card set
// (used when a procedure is split across a subset of the machine).
func (c *Context) WithCards(cards []int) *Context {
	out := *c
	out.Cards = cards
	return &out
}

func (c *Context) limbs() int {
	if c.Limbs > 0 {
		return c.Limbs
	}
	return c.Scheme.EffectiveLimb
}

// CtBytes returns the wire size of one ciphertext at the context limb count.
func (c *Context) CtBytes() float64 {
	return float64(c.Scheme.CiphertextBytes(c.limbs()))
}

func (c *Context) others(self int) []int {
	out := make([]int, 0, len(c.Cards)-1)
	for _, id := range c.Cards {
		if id != self {
			out = append(out, id)
		}
	}
	return out
}

// maxBatchesPerCard caps the number of (compute, broadcast) pipeline slots
// emitted per card per layer. The paper broadcasts every subtask result
// (Fig. 2); batching consecutive subtasks preserves the overlap structure at
// coarser granularity while keeping million-unit layers simulable.
const maxBatchesPerCard = 16

// DistributeBroadcast implements the convolution-layer mapping of Figs. 1-2:
// the layer's n parallel units (kernel-group subtasks) are split evenly over
// the cards, and the layer's packed output ciphertexts — outputCts of them,
// the "Ciphertext" row of Table I, far fewer than the unit count thanks to
// multiplexed packing — are broadcast to the other cards as the subtasks
// producing them finish, so transmission hides behind the next subtasks'
// computation. All cards hold the full layer output when the step completes.
// The embarrassingly parallel procedures (PCMM, CCMM, and whole-ciphertext
// non-linear evaluations and bootstraps) map the same way: "we only need to
// distribute these tasks evenly across multiple computing nodes" (Section
// III-A), and each card broadcasts its share of the outputs.
func (c *Context) DistributeBroadcast(units int, recipe fheop.Counts, outputCts int, label string) error {
	if units <= 0 || outputCts <= 0 {
		return fmt.Errorf("mapping: %s: units (%d) and outputCts (%d) must be positive", label, units, outputCts)
	}
	nc := len(c.Cards)
	c.B.Step(label)
	perCard := (units + nc - 1) / nc
	batch := (perCard + maxBatchesPerCard - 1) / maxBatchesPerCard
	for ci, card := range c.Cards {
		assigned := perCardShare(units, nc, ci)
		if assigned == 0 {
			continue
		}
		ctsShare := perCardShare(outputCts, nc, ci)
		batches := (assigned + batch - 1) / batch
		bytesPerBatch := float64(ctsShare) * c.CtBytes() / float64(batches)
		others := c.others(card)
		for done, bi := 0, 0; done < assigned; done, bi = done+batch, bi+1 {
			sz := batch
			if done+sz > assigned {
				sz = assigned - done
			}
			h := c.B.Compute(card, recipe.Scale(sz), c.limbs(), label)
			if nc > 1 && bytesPerBatch > 0 {
				c.B.Send(card, h, others, bytesPerBatch, label)
			}
		}
	}
	return nil
}

// groupSize is the card-group split of a layer with fewer ciphertexts than
// cards: the largest power of two g with g·cts ≤ cards (power-of-two groups
// keep the card trees balanced).
func groupSize(cts, cards int) int {
	group := 1
	for group*2*cts <= cards {
		group *= 2
	}
	return group
}

// inGroups opens one step and emits one cooperative evaluation per
// ciphertext, the i-th on cards [i·group, (i+1)·group) of the context.
func (c *Context) inGroups(cts, group int, label string, emit func(sub *Context) error) error {
	c.B.Step(label)
	for i := 0; i < cts; i++ {
		if err := emit(c.WithCards(c.Cards[i*group : (i+1)*group])); err != nil {
			return err
		}
	}
	return nil
}

// perCardShare splits units over nc cards, giving the remainder to the
// lowest-numbered cards.
func perCardShare(units, nc, idx int) int {
	base := units / nc
	if idx < units%nc {
		return base + 1
	}
	return base
}

func log2int(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
