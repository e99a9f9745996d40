package isa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/fheop"
	"hydra/internal/task"
)

// randomProgram builds a structurally valid random program from a seed.
func randomProgram(seed int64) *task.Program {
	rng := rand.New(rand.NewSource(seed))
	cards := 1 + rng.Intn(6)
	b := task.NewBuilder(cards, cards)
	steps := 1 + rng.Intn(3)
	for s := 0; s < steps; s++ {
		b.Step("s")
		last := make([]task.Handle, cards) // per card: its latest compute, once Index >= 0
		for c := range last {
			last[c] = task.FromStart
		}
		computed := false
		nTasks := 1 + rng.Intn(10)
		for i := 0; i < nTasks; i++ {
			card := rng.Intn(cards)
			switch {
			case rng.Intn(3) > 0 || !computed || cards == 1:
				ops := fheop.Of(fheop.Op(rng.Intn(3)), 1+rng.Intn(5))
				if rng.Intn(4) == 0 {
					b.SetEnergyScale(0.25 + rng.Float64())
				}
				last[card] = b.Compute(card, ops, 1+rng.Intn(28), "L")
				computed = true
			default:
				// Send from a card that has computed, to random others. The
				// seed draws the sender over the cards in order, so that a
				// seed names one program.
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
				recvs := b.Send(from, last[from], dsts, float64(1+rng.Intn(1e6)), "x")
				if rng.Intn(2) == 0 {
					dst := dsts[0]
					last[dst] = b.ComputeAfterRecv(dst, recvs[0], fheop.Of(fheop.HAdd, 1), 1+rng.Intn(28), "L")
				}
			}
		}
		// Now and then, say a run of the steps so far again.
		if rng.Intn(3) == 0 {
			b.Repeat(rng.Intn(b.Len()), b.Len())
		}
	}
	return b.Build()
}

func TestRandomProgramsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProgram(seed)
		if p.Validate() != nil {
			return false
		}
		data, err := Marshal(p)
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return programsEqual(p, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomCorruptionNeverPanics(t *testing.T) {
	// Flipping arbitrary bytes must produce an error or a valid program,
	// never a panic or hang.
	p := randomProgram(7)
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), data...)
		for flips := 0; flips < 1+rng.Intn(4); flips++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic %v", trial, r)
				}
			}()
			_, _ = Unmarshal(mut)
		}()
	}
}
