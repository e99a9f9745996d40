package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/fheop"
	"hydra/internal/task"
)

// randomValidProgram builds a structurally valid program (same generator
// family as the isa package's) to property-test the scheduler. With repeat
// above 1 it says each random step 1 to repeat times, by pointer, as a
// network's repeated layers are said (task.Builder.Repeat), and it may end
// with a repeat of a run of earlier steps.
func randomValidProgram(seed int64, repeat int) *task.Program {
	rng := rand.New(rand.NewSource(seed))
	cards := 1 + rng.Intn(6)
	b := task.NewBuilder(cards, cards)
	steps := 1 + rng.Intn(3)
	for s := 0; s < steps; s++ {
		b.SetEnergyScale(1 + float64(s)/4)
		randomStep(b, cards, fmt.Sprint("L", s), rng)
		if repeat > 1 {
			for k := rng.Intn(repeat); k > 0; k-- {
				b.Repeat(b.Len()-1, b.Len())
			}
		}
	}
	if repeat > 1 && rng.Intn(2) == 0 {
		b.Repeat(rng.Intn(b.Len()), b.Len())
	}
	return b.Build()
}

// randomStep emits one step drawn from rng, its computes labelled label.
func randomStep(b *task.Builder, cards int, label string, rng *rand.Rand) {
	b.Step("s")
	last := make([]task.Handle, cards) // per card: its latest compute, once Index >= 0
	for c := range last {
		last[c] = task.FromStart
	}
	computed := false
	nTasks := 1 + rng.Intn(12)
	for i := 0; i < nTasks; i++ {
		card := rng.Intn(cards)
		if rng.Intn(3) > 0 || !computed || cards == 1 {
			ops := fheop.Of(fheop.Op(rng.Intn(int(fheop.Rotation)+1)), 1+rng.Intn(5))
			last[card] = b.Compute(card, ops, 1+rng.Intn(28), label)
			computed = true
			continue
		}
		// The seed draws the sender over the cards in order, so that a seed
		// names one program.
		var senders []int
		for c, h := range last {
			if h.Index >= 0 {
				senders = append(senders, c)
			}
		}
		from := senders[rng.Intn(len(senders))]
		var dsts []int
		for c := 0; c < cards; c++ {
			if c != from && rng.Intn(2) == 0 {
				dsts = append(dsts, c)
			}
		}
		if len(dsts) == 0 {
			dsts = []int{(from + 1) % cards}
		}
		recvs := b.Send(from, last[from], dsts, float64(1+rng.Intn(1e7)), "x")
		if rng.Intn(2) == 0 {
			dst := dsts[0]
			last[dst] = b.ComputeAfterRecv(dst, recvs[0], fheop.Of(fheop.HAdd, 1), 1+rng.Intn(28), label)
		}
	}
}

func TestSchedulerInvariants(t *testing.T) {
	for name, cfg := range map[string]Config{"hydra": HydraConfig(), "fab": FABConfig()} {
		f := func(seed int64) bool {
			p := randomValidProgram(seed, 1)
			res, err := Run(p, cfg)
			if err != nil {
				return false
			}
			// Makespan covers the busiest card's computation.
			if res.Makespan+1e-12 < res.MaxComputeBusy() {
				return false
			}
			// Step spans sum to the makespan (barrier semantics).
			sum := 0.0
			for _, st := range res.Steps {
				if st.Span < 0 {
					return false
				}
				sum += st.Span
			}
			if diff := sum - res.Makespan; diff > 1e-9 || diff < -1e-9 {
				return false
			}
			// Op totals match the program.
			if res.OpTotals != p.TotalOps() {
				return false
			}
			// Bytes match.
			if res.BytesSent != p.TotalBytes() {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		p := randomValidProgram(seed, 1)
		a, err := Run(p, HydraConfig())
		if err != nil {
			return false
		}
		b, err := Run(p, HydraConfig())
		if err != nil {
			return false
		}
		return a.Makespan == b.Makespan && a.BytesSent == b.BytesSent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
