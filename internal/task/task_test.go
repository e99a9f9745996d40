package task

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hydra/internal/fheop"
)

// TestBuilderMatchesOracle drives Builder and the reference builder of
// oracle_test.go with the same seeded call sequences and requires the same
// handles, receive indices and programs. Sends draw their destinations into
// one reused buffer, as the mapping emitters do: lists come unsorted, with
// repeated cards, repeated from the previous send or changed in place.
func TestBuilderMatchesOracle(t *testing.T) {
	labels := []string{"ConvBN", "Boot", "FC"}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cards := 1 + rng.Intn(6)
		cps := 1 + rng.Intn(cards)
		b, o := NewBuilder(cards, cps), newOracleBuilder(cards, cps)
		// The open step's compute handles and receive indices, per card.
		handles, recvs := make([][]Handle, cards), make([][]int, cards)
		to, from := make([]int, 0, 2*cards), 0
		check := func(what string) {
			t.Helper()
			got, want := b.Build(), o.Build()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: program differs from the reference builder: %s", seed, what, firstDiff(got, want))
			}
			if b.Build() != got {
				t.Fatalf("seed %d, %s: a second Build returned another program", seed, what)
			}
			// Appending to one card's queue must not write into the next's.
			for si, st := range got.Steps {
				for card := range st.Compute {
					if cap(st.Compute[card]) != len(st.Compute[card]) || cap(st.Comm[card]) != len(st.Comm[card]) {
						t.Fatalf("seed %d, %s: step %d card %d queues have spare capacity", seed, what, si, card)
					}
				}
			}
		}
		for n := rng.Intn(150); n > 0; n-- {
			label := labels[rng.Intn(len(labels))]
			switch r := rng.Intn(20); {
			case r < 2:
				name := fmt.Sprintf("s%d", rng.Intn(4))
				b.Step(name)
				o.Step(name)
				for c := range handles {
					handles[c], recvs[c] = nil, nil
				}
			case r < 3 && b.Len() > 0 && rng.Intn(2) == 0:
				// Say earlier steps again; the next emission opens a step.
				to := 1 + rng.Intn(b.Len())
				from := rng.Intn(to)
				b.Repeat(from, to)
				o.Repeat(from, to)
				for c := range handles {
					handles[c], recvs[c] = nil, nil
				}
			case r < 3:
				v := rng.Float64()*2 - 0.5
				b.SetEnergyScale(v)
				o.SetEnergyScale(v)
			case r < 4:
				check("mid-sequence Build")
			case r < 10:
				card := rng.Intn(cards)
				ops := fheop.Of(fheop.Rotation, rng.Intn(4), fheop.HAdd, rng.Intn(3))
				limbs := 1 + rng.Intn(30)
				var hb, ho Handle
				if w := recvs[card]; len(w) > 0 && rng.Intn(2) == 0 {
					wait := w[rng.Intn(len(w))]
					hb = b.ComputeAfterRecv(card, wait, ops, limbs, label)
					ho = o.ComputeAfterRecv(card, wait, ops, limbs, label)
				} else {
					hb = b.Compute(card, ops, limbs, label)
					ho = o.Compute(card, ops, limbs, label)
				}
				if hb != ho {
					t.Fatalf("seed %d: handle %v, reference %v", seed, hb, ho)
				}
				handles[card] = append(handles[card], hb)
			default:
				if cards == 1 {
					continue
				}
				// Half the time the same card sends the same list again.
				if rng.Intn(2) == 0 || len(to) == 0 || slices.Contains(to, from) {
					from = rng.Intn(cards)
					to = to[:0]
					for k := 1 + rng.Intn(2*cards-1); k > 0; k-- {
						if dst := rng.Intn(cards); dst != from {
							to = append(to, dst)
						}
					}
					if len(to) == 0 {
						to = append(to, (from+1)%cards)
					}
				}
				after := FromStart
				switch h := handles[from]; rng.Intn(3) {
				case 0:
					if len(h) > 0 {
						after = h[rng.Intn(len(h))]
					}
				case 1:
					after = Handle{Card: rng.Intn(cards), Index: -1}
				}
				bytes := float64(rng.Intn(3)) * rng.Float64() * 1e6
				rb := b.Send(from, after, to, bytes, label)
				ro := o.Send(from, after, to, bytes, label)
				if !slices.Equal(rb, ro) {
					t.Fatalf("seed %d: receive indices %v, reference %v", seed, rb, ro)
				}
				for i, dst := range to {
					recvs[dst] = append(recvs[dst], rb[i])
				}
			}
		}
		check("final Build")
	}
}

// firstDiff names the first step queue where two programs differ.
func firstDiff(got, want *Program) string {
	if got.Cards != want.Cards || got.CardsPerServer != want.CardsPerServer || len(got.Steps) != len(want.Steps) {
		return fmt.Sprintf("%d cards in %d, %d steps; want %d in %d, %d steps",
			got.Cards, got.CardsPerServer, len(got.Steps), want.Cards, want.CardsPerServer, len(want.Steps))
	}
	for si, g := range got.Steps {
		w := want.Steps[si]
		if g.Name != w.Name || len(g.Compute) != len(w.Compute) || len(g.Comm) != len(w.Comm) {
			return fmt.Sprintf("step %d: %q, want %q", si, g.Name, w.Name)
		}
		for card := range g.Compute {
			if !reflect.DeepEqual(g.Compute[card], w.Compute[card]) {
				return fmt.Sprintf("step %d card %d compute %+v, want %+v", si, card, g.Compute[card], w.Compute[card])
			}
			if !reflect.DeepEqual(g.Comm[card], w.Comm[card]) {
				return fmt.Sprintf("step %d card %d comm %+v, want %+v", si, card, g.Comm[card], w.Comm[card])
			}
		}
	}
	return "no queue differs"
}

func TestBuilderQueuesAndTags(t *testing.T) {
	b := NewBuilder(3, 8)
	b.Step("layer")
	h0 := b.Compute(0, fheop.Of(fheop.Rotation, 2), 18, "A")
	if h0 != (Handle{Card: 0, Index: 0}) {
		t.Fatalf("handle %v", h0)
	}
	recvs := b.Send(0, h0, []int{1, 2}, 123, "x")
	if len(recvs) != 2 || recvs[0] != 0 || recvs[1] != 0 {
		t.Fatalf("recv indices %v", recvs)
	}
	p := b.Build()
	st := p.Steps[0]
	if st.Comm[0][0].Kind != Send || len(st.Comm[0][0].Peers) != 2 {
		t.Fatalf("send entry %+v", st.Comm[0][0])
	}
	if st.Comm[1][0].Kind != Recv || st.Comm[1][0].Peers[0] != 0 {
		t.Fatalf("recv entry %+v", st.Comm[1][0])
	}
	if st.Comm[1][0].Tag != st.Comm[0][0].Tag || st.Comm[2][0].Tag != st.Comm[0][0].Tag {
		t.Fatal("broadcast tags should match")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitStep(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	p := b.Build()
	if len(p.Steps) != 1 || p.Steps[0].Name != "main" {
		t.Fatalf("implicit step missing: %+v", p.Steps)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	mk := func() *Program {
		b := NewBuilder(2, 2)
		b.Step("s")
		h := b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
		b.Send(0, h, []int{1}, 1, "x")
		return b.Build()
	}
	// Orphan the receive by changing its tag.
	p := mk()
	p.Steps[0].Comm[1][0].Tag = 999
	if err := p.Validate(); err == nil {
		t.Fatal("expected tag mismatch error")
	}
	// Dangling SAC dependency.
	p = mk()
	p.Steps[0].Comm[0][0].WaitCompute = 7
	if err := p.Validate(); err == nil {
		t.Fatal("expected dangling SAC error")
	}
	// A compute whose energy scale is not positive prices no physical energy.
	for _, scale := range []float64{0, -0.5} {
		p = mk()
		p.Steps[0].Compute[0][0].EnergyScale = scale
		if err := p.Validate(); err == nil {
			t.Fatalf("expected an error for energy scale %g", scale)
		}
	}
	// CAR pointing at a send.
	p = mk()
	p.Steps[0].Compute[0] = append(p.Steps[0].Compute[0], Compute{WaitRecv: 0, Limbs: 5, EnergyScale: 1})
	if err := p.Validate(); err == nil {
		t.Fatal("expected CAR-on-send error")
	}
	// Card 0 sends tag 7 to card 1; its only receive sits on card `on` and
	// names card `src` as its source.
	for _, c := range []struct{ on, src int }{{3, 2}, {1, 2}, {3, 0}} {
		comm := make([][]Comm, 4)
		comm[0] = []Comm{{Kind: Send, Peers: []int{1}, Bytes: 1, WaitCompute: -1, Tag: 7}}
		comm[c.on] = []Comm{{Kind: Recv, Peers: []int{c.src}, Bytes: 1, WaitCompute: -1, Tag: 7}}
		p = &Program{Cards: 4, CardsPerServer: 4, Steps: []*Step{{Name: "s", Compute: make([][]Compute, 4), Comm: comm}}}
		if err := p.Validate(); err == nil {
			t.Errorf("receive on card %d from card %d: expected an error", c.on, c.src)
		}
	}
	// A send to cards 1 and 2 received twice on card 1 and never on card 2.
	b := NewBuilder(3, 3)
	b.Step("s")
	b.Send(0, FromStart, []int{1, 2}, 1, "x")
	p = b.Build()
	p.Steps[0].Comm[1] = append(p.Steps[0].Comm[1], p.Steps[0].Comm[2][0])
	p.Steps[0].Comm[2] = nil
	if err := p.Validate(); err == nil {
		t.Fatal("expected an error for a tag received twice on one card")
	}
	// A step repeated by pointer is checked once, and a broken one is found.
	p = mk()
	p.Steps = append(p.Steps, p.Steps[0], p.Steps[0])
	if err := p.Validate(); err != nil {
		t.Fatalf("repeated step: %v", err)
	}
	p.Steps[2].Comm[1][0].Tag = 999
	if err := p.Validate(); err == nil {
		t.Fatal("expected tag mismatch error in a repeated step")
	}
}

// TestValidateMatchesOracle corrupts one field of random valid programs at a
// time and requires Validate to give the reference Validate's verdict and
// error text.
func TestValidateMatchesOracle(t *testing.T) {
	corruptions := []struct {
		name string
		// apply corrupts p, drawing from rng; false if p has nothing to corrupt.
		apply func(p *Program, rng *rand.Rand) bool
	}{
		{"none", func(*Program, *rand.Rand) bool { return true }},
		{"tag", func(p *Program, rng *rand.Rand) bool {
			return anyComm(p, rng, func(st *Step, card int, c *Comm) { c.Tag = rng.Intn(8) - 1 })
		}},
		{"peer", func(p *Program, rng *rand.Rand) bool {
			return anyComm(p, rng, func(st *Step, card int, c *Comm) {
				c.Peers = slices.Clone(c.Peers)
				c.Peers[rng.Intn(len(c.Peers))] = rng.Intn(p.Cards+2) - 1
			})
		}},
		{"extra peer", func(p *Program, rng *rand.Rand) bool {
			return anyComm(p, rng, func(st *Step, card int, c *Comm) {
				c.Peers = append(slices.Clone(c.Peers), rng.Intn(p.Cards))
			})
		}},
		{"kind", func(p *Program, rng *rand.Rand) bool {
			return anyComm(p, rng, func(st *Step, card int, c *Comm) { c.Kind = CommKind(rng.Intn(3)) })
		}},
		{"EnergyScale", func(p *Program, rng *rand.Rand) bool {
			st := p.Steps[rng.Intn(len(p.Steps))]
			card := rng.Intn(p.Cards)
			if len(st.Compute[card]) == 0 {
				return false
			}
			st.Compute[card][rng.Intn(len(st.Compute[card]))].EnergyScale = []float64{0, math.Copysign(0, -1), -0.5, 0.5}[rng.Intn(4)]
			return true
		}},
		{"WaitRecv", func(p *Program, rng *rand.Rand) bool {
			st := p.Steps[rng.Intn(len(p.Steps))]
			card := rng.Intn(p.Cards)
			if len(st.Compute[card]) == 0 {
				return false
			}
			st.Compute[card][rng.Intn(len(st.Compute[card]))].WaitRecv = rng.Intn(len(st.Comm[card])+3) - 2
			return true
		}},
		{"WaitCompute", func(p *Program, rng *rand.Rand) bool {
			return anyComm(p, rng, func(st *Step, card int, c *Comm) {
				c.WaitCompute = rng.Intn(len(st.Compute[card])+3) - 2
			})
		}},
		{"duplicate receive", func(p *Program, rng *rand.Rand) bool {
			return anyRecv(p, rng, func(st *Step, card int, c Comm) {
				st.Comm[card] = append(st.Comm[card], c)
			})
		}},
		{"receive on another card", func(p *Program, rng *rand.Rand) bool {
			return anyRecv(p, rng, func(st *Step, card int, c Comm) {
				other := rng.Intn(p.Cards)
				st.Comm[other] = append(st.Comm[other], c)
			})
		}},
	}
	for seed := int64(1); seed <= 300; seed++ {
		for _, c := range corruptions {
			rng := rand.New(rand.NewSource(seed))
			p := randomProgram(rng)
			if !c.apply(p, rng) {
				continue
			}
			got, want := p.Validate(), validateOracle(p)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d, %s: Validate says %v, the reference %v", seed, c.name, got, want)
			}
			if c.name == "none" && got != nil {
				t.Fatalf("seed %d: a Builder program fails Validate: %v", seed, got)
			}
		}
	}
}

// randomProgram builds a valid program from rng: broadcasts, computes that
// wait on a receive, sends that wait on a compute, and steps said again by
// pointer.
func randomProgram(rng *rand.Rand) *Program {
	cards := 1 + rng.Intn(6)
	b := NewBuilder(cards, cards)
	for s := 1 + rng.Intn(3); s > 0; s-- {
		b.Step(fmt.Sprint("s", s))
		last := make([]Handle, cards)
		for card := range last {
			last[card] = FromStart
		}
		for n := rng.Intn(16); n > 0; n-- {
			card := rng.Intn(cards)
			if cards == 1 || rng.Intn(2) == 0 {
				last[card] = b.Compute(card, fheop.Of(fheop.HAdd, 1), 1+rng.Intn(4), "c")
				continue
			}
			var to []int
			for c := range cards {
				if c != card && rng.Intn(2) == 0 {
					to = append(to, c)
				}
			}
			if len(to) == 0 {
				to = []int{(card + 1) % cards}
			}
			recvs := b.Send(card, last[card], to, float64(rng.Intn(100)), "x")
			if k := rng.Intn(len(to)); rng.Intn(2) == 0 {
				last[to[k]] = b.ComputeAfterRecv(to[k], recvs[k], fheop.Of(fheop.HAdd, 1), 1+rng.Intn(4), "c")
			}
		}
		if rng.Intn(3) == 0 {
			b.Repeat(rng.Intn(b.Len()), b.Len())
		}
	}
	return b.Build()
}

// anyComm applies f to a comm task of p drawn from rng; false if the drawn
// step and card have none.
func anyComm(p *Program, rng *rand.Rand, f func(st *Step, card int, c *Comm)) bool {
	st := p.Steps[rng.Intn(len(p.Steps))]
	card := rng.Intn(p.Cards)
	if len(st.Comm[card]) == 0 {
		return false
	}
	f(st, card, &st.Comm[card][rng.Intn(len(st.Comm[card]))])
	return true
}

// anyRecv applies f to a copy of a receive of p drawn from rng, with the
// receive's step and card; false if p has none.
func anyRecv(p *Program, rng *rand.Rand, f func(st *Step, card int, c Comm)) bool {
	type ref struct {
		st        *Step
		card, idx int
	}
	var recvs []ref
	for _, st := range p.Steps {
		for card := range st.Comm {
			for j, c := range st.Comm[card] {
				if c.Kind == Recv {
					recvs = append(recvs, ref{st, card, j})
				}
			}
		}
	}
	if len(recvs) == 0 {
		return false
	}
	r := recvs[rng.Intn(len(recvs))]
	f(r.st, r.card, r.st.Comm[r.card][r.idx])
	return true
}

func TestRepeatSharesSteps(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Step("a")
	h := b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	b.Send(0, h, []int{1}, 1, "x")
	b.Step("b")
	b.Send(1, FromStart, []int{0}, 2, "y")
	b.Repeat(0, 2)
	b.Compute(1, fheop.Of(fheop.HAdd, 2), 5, "B") // opens "main"
	p := b.Build()
	if len(p.Steps) != 5 || p.Steps[2] != p.Steps[0] || p.Steps[3] != p.Steps[1] || p.Steps[4].Name != "main" {
		t.Fatalf("steps after Repeat: %+v", p.Steps)
	}
	if len(p.Steps[1].Compute[1]) != 0 {
		t.Fatal("an emission after Repeat wrote into a shared step")
	}
	// Tags restart in each step.
	if p.Steps[0].Comm[0][0].Tag != 0 || p.Steps[1].Comm[1][0].Tag != 0 {
		t.Fatalf("tags %d and %d, want 0 and 0", p.Steps[0].Comm[0][0].Tag, p.Steps[1].Comm[1][0].Tag)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEnergyScaleDefaultsAndOverride: a builder starts at scale 1, and the
// scale it is given reaches the program as given: a scale of 0 is Validate's
// to reject, not the builder's to replace.
func TestEnergyScaleDefaultsAndOverride(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Step("s")
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	b.SetEnergyScale(0.5)
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	b.SetEnergyScale(0)
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	p := b.Build()
	q := p.Steps[0].Compute[0]
	if q[0].EnergyScale != 1 || q[1].EnergyScale != 0.5 || q[2].EnergyScale != 0 {
		t.Fatalf("energy scales %v %v %v, want 1 0.5 0", q[0].EnergyScale, q[1].EnergyScale, q[2].EnergyScale)
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "energy scale 0") {
		t.Fatalf("Validate = %v, want the zero energy scale rejected", err)
	}
}

// TestReduction: Fig. 3(d)'s pairwise order, round by round, sends every
// partial but partial 0 exactly once, to a lower one, and only after every
// send into it.
func TestReduction(t *testing.T) {
	if got := Reduction(nil, 8); !slices.Equal(got, []Edge{{4, 0}, {5, 1}, {6, 2}, {7, 3}, {2, 0}, {3, 1}, {1, 0}}) {
		t.Fatalf("Reduction(8) = %v", got)
	}
	if got := Reduction(nil, 5); !slices.Equal(got, []Edge{{3, 0}, {4, 1}, {2, 0}, {1, 0}}) {
		t.Fatalf("Reduction(5) = %v", got)
	}
	for n := 0; n <= 33; n++ {
		sent := make([]bool, max(n, 1))
		for _, e := range Reduction(nil, n) {
			if e.To >= e.From || sent[e.From] || sent[e.To] {
				t.Fatalf("n=%d: send %v out of order", n, e)
			}
			sent[e.From] = true
		}
		for i := 1; i < n; i++ {
			if !sent[i] {
				t.Fatalf("n=%d: partial %d never sent", n, i)
			}
		}
	}
}

func TestTotalsAcrossSteps(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Step("one")
	h := b.Compute(0, fheop.Of(fheop.Rotation, 3), 5, "A")
	b.Send(0, h, []int{1}, 10, "x")
	b.Step("two")
	b.Compute(1, fheop.Of(fheop.Rotation, 4), 5, "B")
	h2 := b.Compute(0, fheop.Of(fheop.PMult, 1), 5, "C")
	b.Send(0, h2, []int{1}, 5, "y")
	p := b.Build()
	ops := p.TotalOps()
	if ops.Get(fheop.Rotation) != 7 || ops.Get(fheop.PMult) != 1 {
		t.Fatalf("op totals %v", ops)
	}
	if p.TotalBytes() != 15 {
		t.Fatalf("byte total %g", p.TotalBytes())
	}
}
