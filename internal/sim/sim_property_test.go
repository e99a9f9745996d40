package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hydra/internal/fheop"
	"hydra/internal/task"
)

// randomValidProgram builds a structurally valid program (same generator
// family as the isa package's) to property-test the scheduler. With repeat
// above 1 it emits each random step 1 to repeat times, each time with fresh
// tags and seqs, as the builder numbers a network's repeated layers, and
// with its own labels and energy scale; and it ends the program with
// near-miss copies of its steps (addNearMisses).
func randomValidProgram(seed int64, repeat int) *task.Program {
	rng := rand.New(rand.NewSource(seed))
	cards := 1 + rng.Intn(6)
	b := task.NewBuilder(cards, cards)
	steps := 1 + rng.Intn(3)
	for s := 0; s < steps; s++ {
		stepSeed, times := rng.Int63(), 1
		if repeat > 1 {
			times = 1 + rng.Intn(repeat)
		}
		for k := 0; k < times; k++ {
			b.SetEnergyScale(1 + float64(k)/4)
			randomStep(b, cards, fmt.Sprint("L", k), rand.New(rand.NewSource(stepSeed)))
		}
	}
	p := b.Build()
	if repeat > 1 {
		addNearMisses(p, rng)
	}
	return p
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

// addNearMisses appends up to four copies of random steps of p. Each has its
// tags and seqs shifted, as a later repeat's would be, and is then changed in
// one place: a send's Bytes, a send's peer, a send's WaitCompute (to the
// compute before, so no cycle closes), or the seqs of two tasks on one card
// swapped, the last step when present. A copy with nothing of its kind to
// change is left out.
func addNearMisses(p *task.Program, rng *rand.Rand) {
	n := len(p.Steps)
	for change := 0; change < 4; change++ {
		st := shifted(p.Steps[rng.Intn(n)], rng.Intn(2001)-1000)
		var sends []*task.Comm
		var from []int
		for card := range st.Comm {
			for j := range st.Comm[card] {
				if c := &st.Comm[card][j]; c.Kind == task.Send && (change != 2 || c.WaitCompute >= 0) {
					sends, from = append(sends, c), append(from, card)
				}
			}
		}
		switch change {
		case 0, 1, 2:
			if len(sends) == 0 {
				continue
			}
			k := rng.Intn(len(sends))
			s := sends[k]
			switch change {
			case 0:
				s.Bytes += float64(1 + rng.Intn(1e6))
			case 1:
				var others []int
				for c := range p.Cards {
					if c != from[k] && !slices.Contains(s.Peers, c) {
						others = append(others, c)
					}
				}
				if len(others) == 0 {
					continue
				}
				s.Peers[rng.Intn(len(s.Peers))] = others[rng.Intn(len(others))]
			case 2:
				s.WaitCompute--
			}
		case 3:
			var busy []int
			for card := range st.Compute {
				if len(st.Compute[card])+len(st.Comm[card]) >= 2 {
					busy = append(busy, card)
				}
			}
			if len(busy) == 0 {
				continue
			}
			card := busy[rng.Intn(len(busy))]
			tasks := len(st.Compute[card]) + len(st.Comm[card])
			i := rng.Intn(tasks)
			j := (i + 1 + rng.Intn(tasks-1)) % tasks
			si, sj := seqOf(st, card, i), seqOf(st, card, j)
			setSeq(st, card, i, sj)
			setSeq(st, card, j, si)
		}
		p.Steps = append(p.Steps, st)
	}
}

// shifted returns a deep copy of st with d added to every tag and seq.
func shifted(st *task.Step, d int) *task.Step {
	out := &task.Step{Name: st.Name, Compute: make([][]task.Compute, len(st.Compute)), Comm: make([][]task.Comm, len(st.Comm))}
	for card := range st.Compute {
		for _, c := range st.Compute[card] {
			out.Compute[card] = append(out.Compute[card], c.WithSeq(c.Seq()+d))
		}
		for _, c := range st.Comm[card] {
			c.Peers = slices.Clone(c.Peers)
			c.Tag += d
			out.Comm[card] = append(out.Comm[card], c.WithSeq(c.Seq()+d))
		}
	}
	return out
}

// seqOf and setSeq address a card's tasks as its computes, then its comm tasks.
func seqOf(st *task.Step, card, i int) int {
	if n := len(st.Compute[card]); i >= n {
		return st.Comm[card][i-n].Seq()
	}
	return st.Compute[card][i].Seq()
}

func setSeq(st *task.Step, card, i, seq int) {
	if n := len(st.Compute[card]); i >= n {
		st.Comm[card][i-n] = st.Comm[card][i-n].WithSeq(seq)
		return
	}
	st.Compute[card][i] = st.Compute[card][i].WithSeq(seq)
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
