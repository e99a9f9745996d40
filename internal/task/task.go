// Package task defines the instruction model of the Hydra scale-out system:
// per-card computation and communication task queues, the SAC/CAR dependence
// classes of Procedure 1, and step-level grouping per Procedure 2. Mapping
// strategies (internal/mapping) emit Programs; the simulator (internal/sim)
// executes them.
package task

import (
	"fmt"
	"math"
	"slices"

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
// and is paired with the matching Send through Tag. In a built program,
// entries may share Peers storage with one another.
type Comm struct {
	Kind        CommKind
	Peers       []int
	Bytes       float64
	WaitCompute int // computation-queue index the send waits on, or -1
	Tag         int // pairs a send with its receive(s), numbered from 0 in each step
	Label       string
}

// Program is the full multi-card instruction stream: a sequence of steps
// (Procedure 2 units — e.g. one CNN layer or one bootstrap phase), each
// holding per-card computation and communication queues. Cards are numbered
// globally; CardsPerServer fixes the server boundaries.
//
// A program returned by Builder.Build is read-only: a step's queues are
// subslices of one array per step, Comm entries share Peers storage, and a
// step may appear more than once in Steps, by pointer (Builder.Repeat): a
// network's repeated layers are one step said again.
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
//
// The open step's computations and sends collect in two logs, reused from
// step to step, and are laid out into the step when it closes (Step, Build):
// one exact-size array per queue kind, each card's queue a cap-limited
// subslice of it.
type Builder struct {
	prog        *Program
	cur         *Step
	nextTag     int // the open step's next tag
	energyScale float64

	computeLog []cardCompute
	// A send's receives are not logged: layout derives them from the send's
	// Peers and Tag.
	sendLog  []cardComm
	nCompute []int // per card: the open step's queue lengths
	nComm    []int
	pending  bool // the logs hold tasks cur does not show yet

	ids       []int   // 0..Cards-1: every receive's Peers is a slice of it
	lastPeers [][]int // per card: the Peers of its latest send
}

type cardCompute struct {
	card int
	c    Compute
}

type cardComm struct {
	card int
	c    Comm
}

// NewBuilder starts a program over cards cards grouped into servers of
// cardsPerServer.
func NewBuilder(cards, cardsPerServer int) *Builder {
	if cards <= 0 || cardsPerServer <= 0 {
		panic("task: cards and cardsPerServer must be positive")
	}
	ids := make([]int, cards)
	for i := range ids {
		ids[i] = i
	}
	return &Builder{
		prog:        &Program{Cards: cards, CardsPerServer: cardsPerServer},
		energyScale: 1,
		nCompute:    make([]int, cards),
		nComm:       make([]int, cards),
		ids:         ids,
		lastPeers:   make([][]int, cards),
	}
}

// SetEnergyScale sets the dynamic-energy derating applied to subsequently
// emitted computation tasks (1 = nominal). Validate rejects a scale that is
// not positive.
func (b *Builder) SetEnergyScale(v float64) { b.energyScale = v }

// Step opens a new scheduling step; subsequent emissions go into it. Its
// tags start again at 0, so emitting the same tasks twice gives equal steps.
func (b *Builder) Step(name string) *Builder {
	b.layout()
	b.computeLog = b.computeLog[:0]
	b.sendLog = b.sendLog[:0]
	clear(b.nCompute)
	clear(b.nComm)
	b.nextTag = 0
	b.cur = &Step{
		Name:    name,
		Compute: make([][]Compute, b.prog.Cards),
		Comm:    make([][]Comm, b.prog.Cards),
	}
	b.prog.Steps = append(b.prog.Steps, b.cur)
	return b
}

// Len returns the number of steps emitted so far.
func (b *Builder) Len() int { return len(b.prog.Steps) }

// Repeat appends steps [from, to) again, the same *Step values: the program
// says "these steps again" without a copy. It closes the open step, so an
// emission after it opens a new step ("main" if none is named) and never
// writes into a shared one.
func (b *Builder) Repeat(from, to int) {
	if from < 0 || from > to || to > len(b.prog.Steps) {
		panic(fmt.Sprintf("task: repeat of steps [%d, %d) of %d", from, to, len(b.prog.Steps)))
	}
	b.layout()
	b.cur = nil
	b.prog.Steps = append(b.prog.Steps, b.prog.Steps[from:to]...)
}

// open makes sure a step is open, "main" if none was named.
func (b *Builder) open() {
	if b.cur == nil {
		b.Step("main")
	}
}

// layout writes the logged tasks into the open step's queues, each queue in
// creation order. A card with no tasks keeps a nil queue.
func (b *Builder) layout() {
	if !b.pending {
		return
	}
	b.pending = false
	s := b.cur
	computes := make([]Compute, len(b.computeLog))
	off := 0
	for card, n := range b.nCompute {
		if n > 0 {
			s.Compute[card] = computes[off : off : off+n]
			off += n
		}
	}
	for i := range b.computeLog {
		e := &b.computeLog[i]
		s.Compute[e.card] = append(s.Compute[e.card], e.c)
	}
	total := 0
	for _, n := range b.nComm {
		total += n
	}
	comms := make([]Comm, total)
	off = 0
	for card, n := range b.nComm {
		if n > 0 {
			s.Comm[card] = comms[off : off : off+n]
			off += n
		}
	}
	for i := range b.sendLog {
		e := &b.sendLog[i]
		s.Comm[e.card] = append(s.Comm[e.card], e.c)
		recv := Comm{
			Kind: Recv, Peers: b.ids[e.card : e.card+1 : e.card+1], Bytes: e.c.Bytes,
			WaitCompute: -1, Tag: e.c.Tag, Label: e.c.Label,
		}
		for _, dst := range e.c.Peers {
			s.Comm[dst] = append(s.Comm[dst], recv)
		}
	}
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
	b.open()
	if card < 0 || card >= b.prog.Cards {
		panic(fmt.Sprintf("task: card %d out of range", card))
	}
	if limbs <= 0 {
		panic("task: limbs must be positive")
	}
	b.computeLog = append(b.computeLog, cardCompute{card, Compute{
		Ops: ops, Limbs: limbs, WaitRecv: waitRecv, Label: label,
		EnergyScale: b.energyScale,
	}})
	b.pending = true
	b.nCompute[card]++
	return Handle{Card: card, Index: b.nCompute[card] - 1}
}

// Send emits a transfer of bytes from card `from` to each card in `to`
// (one broadcast when len(to) > 1), firing after the computation task `after`
// finishes (pass a Handle with Index -1, or FromStart, for a data-independent
// send). It returns the communication-queue index of the matching receive on
// each destination card, for use with ComputeAfterRecv.
func (b *Builder) Send(from int, after Handle, to []int, bytes float64, label string) []int {
	b.open()
	if len(to) == 0 {
		panic("task: send needs at least one destination")
	}
	if !(bytes >= 0) || math.IsInf(bytes, 1) {
		panic(fmt.Sprintf("task: send of %g bytes", bytes))
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
	// Mapping strategies send one card's results to the same peers batch
	// after batch; those sends share one copy of the list.
	peers := b.lastPeers[from]
	if !slices.Equal(peers, to) {
		peers = append(make([]int, 0, len(to)), to...)
		b.lastPeers[from] = peers
	}
	b.sendLog = append(b.sendLog, cardComm{from, Comm{
		Kind: Send, Peers: peers, Bytes: bytes,
		WaitCompute: after.Index, Tag: tag, Label: label,
	}})
	b.pending = true
	b.nComm[from]++
	recvIdx := make([]int, len(to))
	for i, dst := range to {
		recvIdx[i] = b.nComm[dst]
		b.nComm[dst]++
	}
	return recvIdx
}

// FromStart is the Handle for sends with no computation dependence.
var FromStart = Handle{Card: -1, Index: -1}

// Edge is one send of a pairwise reduction: partial From is added into
// partial To.
type Edge struct{ From, To int }

// Reduction appends to dst the sends that fold n partials onto partial 0
// pairwise, Fig. 3(d)'s order, round by round: while h > 1 partials are
// active, the upper ⌊h/2⌋ send to the lower ones, partial i to partial
// i-⌈h/2⌉, and the lower ⌈h/2⌉ stay active. Every reduction tree of the
// mapping emitters and of fhir's lowerings is this one; an emitter passes a
// stack array's slice, so a tree of up to its length allocates nothing.
func Reduction(dst []Edge, n int) []Edge {
	for n > 1 {
		half := (n + 1) / 2
		for i := half; i < n; i++ {
			dst = append(dst, Edge{From: i, To: i - half})
		}
		n = half
	}
	return dst
}

// Build lays out the open step and returns the program. Emitting more after
// Build is allowed; the next Step or Build lays the open step out again.
func (b *Builder) Build() *Program {
	b.layout()
	return b.prog
}

// Validate checks structural invariants of a program: one queue pair per
// card, positive limb counts and energy scales, in-range dependencies and
// peers, finite non-negative byte counts, and tags that pair each send with
// exactly one receive on each of its destinations, each receive naming the
// sender. Every program the Builder emits satisfies them, so a program that
// passes can be simulated. A step repeated by pointer is checked once, in
// time linear in its tasks and their peers.
func (p *Program) Validate() error {
	if p.Cards < 1 || p.CardsPerServer < 1 {
		return fmt.Errorf("task: %d cards in servers of %d", p.Cards, p.CardsPerServer)
	}
	type sendRef struct {
		tag, card   int
		peers       []int
		recvs, last int // receives found so far, and the card of the latest
		to          int // the card whose receives are checked, once the send names it
	}
	byTag := map[int]int{} // tag -> its send's index in sends, in the step
	var sends []sendRef
	// The sends naming each card, a list per card: named[head[c]] is card c's
	// latest, and next leads to the one before (-1 ends a list).
	type naming struct{ send, next int32 }
	var named []naming
	var head []int32
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
		peers := 0 // over the step's sends
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
					sends = append(sends, sendRef{tag: c.Tag, card: card, peers: c.Peers, last: -1, to: -1})
					peers += len(c.Peers)
				case Recv:
					if len(c.Peers) != 1 {
						return fmt.Errorf("task: step %d card %d recv %d names %d sources, want 1", si, card, i, len(c.Peers))
					}
				default:
					return fmt.Errorf("task: step %d card %d comm %d has unknown kind %d", si, card, i, c.Kind)
				}
			}
		}
		head, named = head[:0], slices.Grow(named[:0], peers)
		for range p.Cards {
			head = append(head, -1)
		}
		for k := range sends {
			for _, peer := range sends[k].peers {
				named = append(named, naming{int32(k), head[peer]})
				head[peer] = int32(len(named) - 1)
			}
		}
		// A card's receives are scanned together, after its sends are marked
		// with it: a tag received twice on one card is its send's latest
		// receive, and a send not marked with the card does not name it.
		for card := 0; card < p.Cards; card++ {
			for e := head[card]; e >= 0; e = named[e].next {
				sends[named[e].send].to = card
			}
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
				case s.to != card:
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
