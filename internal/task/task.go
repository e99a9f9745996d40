// Package task defines the instruction model of the Hydra scale-out system:
// per-card computation and communication task queues, the SAC/CAR dependence
// classes of Procedure 1, and step-level grouping per Procedure 2. Mapping
// strategies (internal/mapping) emit Programs; the simulator (internal/sim)
// executes them.
package task

import (
	"fmt"

	"hydra/internal/fheop"
)

// Compute is one entry of a card's computation task queue: a fused batch of
// CKKS operations. A task with WaitRecv >= 0 is data-dependent (CT_d in the
// paper's terminology): it waits for the finish signal of that receive task
// in the same card's communication queue. WaitRecv == -1 marks a
// data-independent task (CT_i).
type Compute struct {
	Ops      fheop.Counts // operations fused into this task
	Limbs    int          // RNS limb count the operations run at
	WaitRecv int          // communication-queue index of the receive this task waits on, or -1
	Label    string       // procedure attribution (e.g. "ConvBN", "Boot")
	// EnergyScale derates the dynamic energy of this task (1 = nominal).
	// Procedures that rotate a scratchpad-resident operand thousands of
	// times (PCMM/CCMM) move far less off-chip data than the per-op roofline
	// assumes.
	EnergyScale float64
	seq         int // global creation order, used on cards without a DTU
}

// CommKind distinguishes the communication queue entries.
type CommKind int

// Communication task kinds.
const (
	Send CommKind = iota
	Recv
)

// Comm is one entry of a card's communication task queue. A Send with
// WaitCompute >= 0 is Send-After-Compute: it fires only once that
// computation-queue entry finishes. Peers lists the destination cards
// (len > 1 = broadcast through the switch). A Recv names its source in Peers
// and is paired with the matching Send through Tag.
type Comm struct {
	Kind        CommKind
	Peers       []int
	Bytes       float64
	WaitCompute int // computation-queue index the send waits on, or -1
	Tag         int // pairs a send with its receive(s)
	Label       string
	seq         int
}

// Program is the full multi-card instruction stream: a sequence of steps
// (Procedure 2 units — e.g. one CNN layer or one bootstrap phase), each
// holding per-card computation and communication queues. Cards are numbered
// globally; CardsPerServer fixes the server boundaries.
type Program struct {
	Cards          int
	CardsPerServer int
	Steps          []*Step
}

// Step is one Procedure 2 scheduling unit: all cards run their queues, and a
// barrier (the completion signal to the host) separates it from the next step.
type Step struct {
	Name    string
	Compute [][]Compute // [card][index]
	Comm    [][]Comm    // [card][index]
}

// Handle identifies a computation task inside a step during construction.
type Handle struct {
	Card, Index int
}

// Builder constructs Programs with automatic tag assignment and SAC/CAR
// wiring.
type Builder struct {
	prog        *Program
	cur         *Step
	nextTag     int
	nextSeq     int
	energyScale float64
}

// NewBuilder starts a program over cards cards grouped into servers of
// cardsPerServer.
func NewBuilder(cards, cardsPerServer int) *Builder {
	if cards <= 0 || cardsPerServer <= 0 {
		panic("task: cards and cardsPerServer must be positive")
	}
	return &Builder{prog: &Program{Cards: cards, CardsPerServer: cardsPerServer}, energyScale: 1}
}

// SetEnergyScale sets the dynamic-energy derating applied to subsequently
// emitted computation tasks (1 = nominal).
func (b *Builder) SetEnergyScale(v float64) {
	if v <= 0 {
		v = 1
	}
	b.energyScale = v
}

// Step opens a new scheduling step; subsequent emissions go into it.
func (b *Builder) Step(name string) *Builder {
	b.cur = &Step{
		Name:    name,
		Compute: make([][]Compute, b.prog.Cards),
		Comm:    make([][]Comm, b.prog.Cards),
	}
	b.prog.Steps = append(b.prog.Steps, b.cur)
	return b
}

func (b *Builder) step() *Step {
	if b.cur == nil {
		b.Step("main")
	}
	return b.cur
}

// Compute appends a data-independent computation task to card's queue.
func (b *Builder) Compute(card int, ops fheop.Counts, limbs int, label string) Handle {
	return b.computeTask(card, ops, limbs, -1, label)
}

// ComputeAfterRecv appends a computation task that waits for the given
// receive (CAR).
func (b *Builder) ComputeAfterRecv(card int, recvIdx int, ops fheop.Counts, limbs int, label string) Handle {
	return b.computeTask(card, ops, limbs, recvIdx, label)
}

func (b *Builder) computeTask(card int, ops fheop.Counts, limbs, waitRecv int, label string) Handle {
	s := b.step()
	if card < 0 || card >= b.prog.Cards {
		panic(fmt.Sprintf("task: card %d out of range", card))
	}
	if limbs <= 0 {
		panic("task: limbs must be positive")
	}
	s.Compute[card] = append(s.Compute[card], Compute{
		Ops: ops, Limbs: limbs, WaitRecv: waitRecv, Label: label,
		EnergyScale: b.energyScale, seq: b.nextSeq,
	})
	b.nextSeq++
	return Handle{Card: card, Index: len(s.Compute[card]) - 1}
}

// Send emits a transfer of bytes from card `from` to each card in `to`
// (one broadcast when len(to) > 1), firing after the computation task `after`
// finishes (pass a Handle with Index -1, or FromStart, for a data-independent
// send). It returns the communication-queue index of the matching receive on
// each destination card, for use with ComputeAfterRecv.
func (b *Builder) Send(from int, after Handle, to []int, bytes float64, label string) []int {
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
		WaitCompute: after.Index, Tag: tag, Label: label, seq: b.nextSeq,
	})
	b.nextSeq++
	recvIdx := make([]int, len(to))
	for i, dst := range to {
		s.Comm[dst] = append(s.Comm[dst], Comm{
			Kind: Recv, Peers: []int{from}, Bytes: bytes,
			WaitCompute: -1, Tag: tag, Label: label, seq: b.nextSeq,
		})
		b.nextSeq++
		recvIdx[i] = len(s.Comm[dst]) - 1
	}
	return recvIdx
}

// FromStart is the Handle for sends with no computation dependence.
var FromStart = Handle{Card: -1, Index: -1}

// Build finalizes and returns the program.
func (b *Builder) Build() *Program { return b.prog }

// Seq exposes the creation order (used by the simulator for cards without an
// independent communication unit, where both queues serialize on one engine).
func (c Compute) Seq() int { return c.seq }

// Seq exposes the creation order of a communication task.
func (c Comm) Seq() int { return c.seq }

// WithSeq returns a copy carrying the given creation-order sequence number.
// Used by decoders (internal/isa) reconstructing programs from the wire.
func (c Compute) WithSeq(v int) Compute { c.seq = v; return c }

// WithSeq returns a copy carrying the given creation-order sequence number.
func (c Comm) WithSeq(v int) Comm { c.seq = v; return c }

// Validate checks structural invariants of a program: paired tags, in-range
// dependencies.
func (p *Program) Validate() error {
	for si, st := range p.Steps {
		sendTag := map[int]int{}  // tag -> expected receivers
		recvTag := map[int]bool{} // tag seen by a recv
		for card := 0; card < p.Cards; card++ {
			for i, c := range st.Compute[card] {
				if c.WaitRecv >= len(st.Comm[card]) {
					return fmt.Errorf("task: step %d card %d compute %d waits on missing recv %d", si, card, i, c.WaitRecv)
				}
				if c.WaitRecv >= 0 && st.Comm[card][c.WaitRecv].Kind != Recv {
					return fmt.Errorf("task: step %d card %d compute %d waits on a non-recv", si, card, i)
				}
			}
			for i, c := range st.Comm[card] {
				switch c.Kind {
				case Send:
					if c.WaitCompute >= len(st.Compute[card]) {
						return fmt.Errorf("task: step %d card %d send %d waits on missing compute %d", si, card, i, c.WaitCompute)
					}
					sendTag[c.Tag] = len(c.Peers)
				case Recv:
					recvTag[c.Tag] = true
				}
			}
		}
		for tag := range sendTag {
			if !recvTag[tag] {
				return fmt.Errorf("task: step %d send tag %d has no receiver", si, tag)
			}
		}
		for tag := range recvTag {
			if _, ok := sendTag[tag]; !ok {
				return fmt.Errorf("task: step %d recv tag %d has no sender", si, tag)
			}
		}
	}
	return nil
}

// TotalOps sums the operation counts across the whole program.
func (p *Program) TotalOps() fheop.Counts {
	var total fheop.Counts
	for _, st := range p.Steps {
		for _, queue := range st.Compute {
			for _, c := range queue {
				total = total.Add(c.Ops)
			}
		}
	}
	return total
}

// TotalBytes sums the bytes sent across the whole program (broadcasts count
// once per destination).
func (p *Program) TotalBytes() float64 {
	total := 0.0
	for _, st := range p.Steps {
		for _, queue := range st.Comm {
			for _, c := range queue {
				if c.Kind == Send {
					total += c.Bytes * float64(len(c.Peers))
				}
			}
		}
	}
	return total
}
