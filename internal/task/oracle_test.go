package task

import (
	"fmt"
	"math"
	"slices"

	"hydra/internal/fheop"
)

// oracleBuilder is the reference Builder: it appends every task straight into
// its card's queue, and gives every send a copy of its peer list and every
// receive a slice of its own. TestBuilderMatchesOracle holds Builder to it.
type oracleBuilder struct {
	prog        *Program
	cur         *Step
	nextTag     int
	energyScale float64
}

func newOracleBuilder(cards, cardsPerServer int) *oracleBuilder {
	if cards <= 0 || cardsPerServer <= 0 {
		panic("task: cards and cardsPerServer must be positive")
	}
	return &oracleBuilder{prog: &Program{Cards: cards, CardsPerServer: cardsPerServer}, energyScale: 1}
}

func (b *oracleBuilder) SetEnergyScale(v float64) { b.energyScale = v }

func (b *oracleBuilder) Step(name string) *oracleBuilder {
	b.nextTag = 0
	b.cur = &Step{
		Name:    name,
		Compute: make([][]Compute, b.prog.Cards),
		Comm:    make([][]Comm, b.prog.Cards),
	}
	b.prog.Steps = append(b.prog.Steps, b.cur)
	return b
}

func (b *oracleBuilder) Repeat(from, to int) {
	b.prog.Steps = append(b.prog.Steps, b.prog.Steps[from:to]...)
	b.cur = nil
}

func (b *oracleBuilder) step() *Step {
	if b.cur == nil {
		b.Step("main")
	}
	return b.cur
}

func (b *oracleBuilder) Compute(card int, ops fheop.Counts, limbs int, label string) Handle {
	return b.computeTask(card, ops, limbs, -1, label)
}

func (b *oracleBuilder) ComputeAfterRecv(card int, recvIdx int, ops fheop.Counts, limbs int, label string) Handle {
	return b.computeTask(card, ops, limbs, recvIdx, label)
}

func (b *oracleBuilder) computeTask(card int, ops fheop.Counts, limbs, waitRecv int, label string) Handle {
	s := b.step()
	if card < 0 || card >= b.prog.Cards {
		panic(fmt.Sprintf("task: card %d out of range", card))
	}
	if limbs <= 0 {
		panic("task: limbs must be positive")
	}
	s.Compute[card] = append(s.Compute[card], Compute{
		Ops: ops, Limbs: limbs, WaitRecv: waitRecv, Label: label,
		EnergyScale: b.energyScale,
	})
	return Handle{Card: card, Index: len(s.Compute[card]) - 1}
}

func (b *oracleBuilder) Send(from int, after Handle, to []int, bytes float64, label string) []int {
	s := b.step()
	if len(to) == 0 {
		panic("task: send needs at least one destination")
	}
	for _, dst := range to {
		if dst == from {
			panic("task: send to self")
		}
		if dst < 0 || dst >= b.prog.Cards {
			panic(fmt.Sprintf("task: destination %d out of range", dst))
		}
	}
	if after.Card != from && after.Index >= 0 {
		panic("task: SAC dependency must be on the sending card")
	}
	tag := b.nextTag
	b.nextTag++
	s.Comm[from] = append(s.Comm[from], Comm{
		Kind: Send, Peers: append([]int(nil), to...), Bytes: bytes,
		WaitCompute: after.Index, Tag: tag, Label: label,
	})
	recvIdx := make([]int, len(to))
	for i, dst := range to {
		s.Comm[dst] = append(s.Comm[dst], Comm{
			Kind: Recv, Peers: []int{from}, Bytes: bytes,
			WaitCompute: -1, Tag: tag, Label: label,
		})
		recvIdx[i] = len(s.Comm[dst]) - 1
	}
	return recvIdx
}

func (b *oracleBuilder) Build() *Program { return b.prog }

// validateOracle is the reference Validate: it checks that a receive is
// addressed to its card by searching its send's peer list.
// TestValidateMatchesOracle holds Validate to its verdict and its error text.
func validateOracle(p *Program) error {
	if p.Cards < 1 || p.CardsPerServer < 1 {
		return fmt.Errorf("task: %d cards in servers of %d", p.Cards, p.CardsPerServer)
	}
	type sendRef struct {
		tag, card   int
		peers       []int
		recvs, last int // receives found so far, and the card of the latest
	}
	byTag := map[int]int{} // tag -> its send's index in sends, in the step
	var sends []sendRef
	seen := make(map[*Step]bool, len(p.Steps))
	for si, st := range p.Steps {
		if seen[st] {
			continue
		}
		seen[st] = true
		if len(st.Compute) != p.Cards || len(st.Comm) != p.Cards {
			return fmt.Errorf("task: step %d has %d compute and %d comm queues for %d cards", si, len(st.Compute), len(st.Comm), p.Cards)
		}
		clear(byTag)
		sends = sends[:0]
		for card := 0; card < p.Cards; card++ {
			for i := range st.Compute[card] {
				c := &st.Compute[card][i]
				if c.Limbs < 1 {
					return fmt.Errorf("task: step %d card %d compute %d runs at %d limbs", si, card, i, c.Limbs)
				}
				if !(c.EnergyScale > 0) {
					return fmt.Errorf("task: step %d card %d compute %d has energy scale %g", si, card, i, c.EnergyScale)
				}
				if c.WaitRecv < -1 || c.WaitRecv >= len(st.Comm[card]) {
					return fmt.Errorf("task: step %d card %d compute %d waits on missing recv %d", si, card, i, c.WaitRecv)
				}
				if c.WaitRecv >= 0 && st.Comm[card][c.WaitRecv].Kind != Recv {
					return fmt.Errorf("task: step %d card %d compute %d waits on a non-recv", si, card, i)
				}
			}
			for i := range st.Comm[card] {
				c := &st.Comm[card][i]
				for _, peer := range c.Peers {
					if peer < 0 || peer >= p.Cards {
						return fmt.Errorf("task: step %d card %d comm %d names peer %d of %d cards", si, card, i, peer, p.Cards)
					}
					if peer == card && c.Kind == Send {
						return fmt.Errorf("task: step %d card %d send %d lists its own card", si, card, i)
					}
				}
				if !(c.Bytes >= 0) || math.IsInf(c.Bytes, 1) {
					return fmt.Errorf("task: step %d card %d comm %d carries %g bytes", si, card, i, c.Bytes)
				}
				if c.WaitCompute < -1 {
					return fmt.Errorf("task: step %d card %d comm %d waits on missing compute %d", si, card, i, c.WaitCompute)
				}
				switch c.Kind {
				case Send:
					if c.WaitCompute >= len(st.Compute[card]) {
						return fmt.Errorf("task: step %d card %d send %d waits on missing compute %d", si, card, i, c.WaitCompute)
					}
					if _, dup := byTag[c.Tag]; dup {
						return fmt.Errorf("task: step %d send tag %d is sent twice", si, c.Tag)
					}
					byTag[c.Tag] = len(sends)
					sends = append(sends, sendRef{tag: c.Tag, card: card, peers: c.Peers, last: -1})
				case Recv:
					if len(c.Peers) != 1 {
						return fmt.Errorf("task: step %d card %d recv %d names %d sources, want 1", si, card, i, len(c.Peers))
					}
				default:
					return fmt.Errorf("task: step %d card %d comm %d has unknown kind %d", si, card, i, c.Kind)
				}
			}
		}
		// A card's receives are scanned together, so a tag received twice on
		// one card is its send's latest receive.
		for card := 0; card < p.Cards; card++ {
			for i := range st.Comm[card] {
				c := &st.Comm[card][i]
				if c.Kind != Recv {
					continue
				}
				k, ok := byTag[c.Tag]
				if !ok {
					return fmt.Errorf("task: step %d recv tag %d has no sender", si, c.Tag)
				}
				s := &sends[k]
				switch {
				case c.Peers[0] != s.card:
					return fmt.Errorf("task: step %d card %d recv %d names source %d, but card %d sends tag %d", si, card, i, c.Peers[0], s.card, c.Tag)
				case !slices.Contains(s.peers, card):
					return fmt.Errorf("task: step %d card %d recv %d takes tag %d, which is not sent to card %d", si, card, i, c.Tag, card)
				case s.last == card:
					return fmt.Errorf("task: step %d card %d receives tag %d twice", si, card, c.Tag)
				}
				s.recvs++
				s.last = card
			}
		}
		for _, s := range sends {
			if s.recvs != len(s.peers) {
				return fmt.Errorf("task: step %d send tag %d has %d receivers for %d destinations", si, s.tag, s.recvs, len(s.peers))
			}
		}
	}
	return nil
}
