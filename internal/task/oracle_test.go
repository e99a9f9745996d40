package task

import (
	"fmt"

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

func (b *oracleBuilder) SetEnergyScale(v float64) {
	if v <= 0 {
		v = 1
	}
	b.energyScale = v
}

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
