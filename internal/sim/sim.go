// Package sim executes Hydra task programs on a discrete-event model of the
// scale-out system: per-card computation and communication engines with the
// hardware handshake of Procedure 1 (ready/finish signals, Send-After-Compute
// and Compute-After-Receive dependences), switch-based point-to-point and
// broadcast transfers, host-relayed transfers (FAB-style), and step barriers
// per Procedure 2.
package sim

import (
	"fmt"
	"slices"
	"sort"

	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/task"
)

// Config describes the machine a program runs on.
type Config struct {
	Scheme  hw.SchemeParams
	Card    hw.CardProfile
	Network hw.NetworkProfile
	// CollectTrace records per-task start/end times in Result.Trace
	// (memory-proportional to the task count; off by default).
	CollectTrace bool
}

// TraceEvent is one scheduled task occurrence. The JSON tags are the wire
// shape of `hydrasim -trace-json`.
type TraceEvent struct {
	Card  int     `json:"card"`
	Kind  string  `json:"kind"` // "compute", "send" or "recv"
	Label string  `json:"label"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// HydraConfig returns the standard Hydra machine configuration.
func HydraConfig() Config {
	return Config{
		Scheme:  hw.PaperScheme(),
		Card:    hw.HydraCard(),
		Network: hw.HydraNetwork(),
	}
}

// FABConfig returns the FAB multi-card machine configuration: host-relayed
// transfers (PCIe + LAN with a host round trip per dependency). DMA to the
// host proceeds concurrently with the FPGA kernels, but every transfer pays
// the host-managed path, which is what erodes FAB's scalability (Fig. 8).
func FABConfig() Config {
	return Config{
		Scheme:  hw.PaperScheme(),
		Card:    hw.FABCard(),
		Network: hw.FABNetwork(),
	}
}

// StepStat summarizes one program step.
type StepStat struct {
	Name       string
	Span       float64 // wall-clock duration of the step
	ComputeMax float64 // largest per-card compute busy time in the step
	CommBytes  float64
}

// Exposed returns the communication time not hidden behind computation.
func (s StepStat) Exposed() float64 {
	e := s.Span - s.ComputeMax
	if e < 0 {
		return 0
	}
	return e
}

// Result is the outcome of a simulation.
type Result struct {
	Makespan    float64
	ComputeBusy []float64 // per card
	BytesSent   float64
	Steps       []StepStat

	// EnergyByUnit aggregates Joules per contributor: NTT, MA, MM, Auto,
	// HBM, Comm, Static.
	EnergyByUnit map[string]float64

	// OpTotals counts the CKKS operations executed.
	OpTotals fheop.Counts

	// Trace holds per-task timings when Config.CollectTrace is set.
	Trace []TraceEvent
}

// TotalEnergy sums the energy contributions in unit-name order: float
// addition is not associative, so summing in map-iteration order would move
// the last bit from call to call.
func (r *Result) TotalEnergy() float64 {
	units := make([]string, 0, len(r.EnergyByUnit))
	for u := range r.EnergyByUnit {
		units = append(units, u)
	}
	sort.Strings(units)
	t := 0.0
	for _, u := range units {
		t += r.EnergyByUnit[u]
	}
	return t
}

// MaxComputeBusy returns the largest per-card compute time.
func (r *Result) MaxComputeBusy() float64 {
	m := 0.0
	for _, v := range r.ComputeBusy {
		if v > m {
			m = v
		}
	}
	return m
}

// ExposedComm returns the wall-clock time not covered by the busiest card's
// computation — the communication overhead of Figs. 8 and 9(c).
func (r *Result) ExposedComm() float64 {
	e := r.Makespan - r.MaxComputeBusy()
	if e < 0 {
		return 0
	}
	return e
}

// CommShare returns ExposedComm as a fraction of the makespan.
func (r *Result) CommShare() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return r.ExposedComm() / r.Makespan
}

// StepSpanByName aggregates step wall times by step name.
func (r *Result) StepSpanByName() map[string]float64 {
	m := map[string]float64{}
	for _, s := range r.Steps {
		m[s.Name] += s.Span
	}
	return m
}

// Placement maps a program's logical cards onto a subset of a physical
// fleet. Cards[i] names the physical card running logical card i; the
// physical identities matter only for network timing, because transfers
// between cards of the same physical server ride the in-server switch while
// transfers crossing a server boundary pay the inter-server links.
// CardsPerServer is the physical fleet's server width (which may differ from
// the program's own CardsPerServer, fixed when the program was built for a
// standalone machine of exactly its size).
type Placement struct {
	Cards          []int
	CardsPerServer int
}

// identity is the trivial placement: logical card i on physical card i. It
// runs before the program is validated, so a negative card count gives an
// empty placement for RunOn to reject.
func identity(p *task.Program) Placement {
	ids := make([]int, max(p.Cards, 0))
	for i := range ids {
		ids[i] = i
	}
	return Placement{Cards: ids, CardsPerServer: p.CardsPerServer}
}

func (pl Placement) validate(p *task.Program) error {
	if len(pl.Cards) != p.Cards {
		return fmt.Errorf("sim: placement has %d cards for a %d-card program", len(pl.Cards), p.Cards)
	}
	if pl.CardsPerServer <= 0 {
		return fmt.Errorf("sim: placement needs a positive CardsPerServer, got %d", pl.CardsPerServer)
	}
	seen := map[int]bool{}
	for _, c := range pl.Cards {
		if c < 0 {
			return fmt.Errorf("sim: negative physical card %d in placement", c)
		}
		if seen[c] {
			return fmt.Errorf("sim: physical card %d appears twice in placement", c)
		}
		seen[c] = true
	}
	return nil
}

// Run executes the program on the configured machine.
func Run(p *task.Program, cfg Config) (*Result, error) {
	return RunOn(p, cfg, identity(p))
}

// RunOn executes the program with its logical cards placed on a subset of a
// larger physical fleet per pl. The serving layer uses this to cost the same
// job program differently depending on where the scheduler lands it: a
// placement confined to one server sees only in-server switch hops, while a
// placement spanning servers pays inter-server transfers.
func RunOn(p *task.Program, cfg Config, pl Placement) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Card.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, err
	}
	if err := pl.validate(p); err != nil {
		return nil, err
	}
	return newRunner(p, &cfg, pl).run()
}

// energyUnits names the per-operation energy contributors, in the order
// every accumulation runs through them.
var energyUnits = [...]string{"NTT", "MA", "MM", "Auto", "HBM"}

const numOps = len(fheop.Counts{})

// opCost is what one invocation of an operation at one limb count costs.
type opCost struct {
	time   float64
	energy [len(energyUnits)]float64
}

// stepMemo is what one step adds to a run, timed from its barrier at t = 0.
// It depends on the step and the machine alone, so every occurrence of a
// step repeated by pointer adds the same.
type stepMemo struct {
	stat           StepStat
	busy           []float64 // per card: compute time
	energy         [len(energyUnits)]float64
	comm           float64 // NIC energy
	computed, sent bool    // some task ran an operation; some task sent
	ops            fheop.Counts
	trace          []TraceEvent // times from the step's start
}

// sendSlot is an entry of the table of a step's sends by tag: the send is
// queue entry j-1 of card's comm queue; j is 0 in an empty slot.
type sendSlot struct {
	tag     int
	card, j int32
}

// runner schedules the steps of one RunOn call. It compiles and times each
// distinct *task.Step once, on its first occurrence, and adds the step's
// memo at every occurrence (a program repeats a step by pointer). Every
// compilation reuses one scratch, sized to the program's largest step, and
// the runner prices each (op, limbs) pair once.
type runner struct {
	p   *task.Program
	cfg *Config
	pl  Placement
	res *Result

	costs map[int]*[numOps]opCost // per limb count
	memos map[*task.Step]*stepMemo

	// Compile scratch. A step's nodes are numbered in queue order: each
	// card's computes, then its comm tasks, a receive's ready signal just
	// before its completion.
	dur, at            []float64  // per node: its duration; its completion, once timed
	compBase, commBase []int32    // per card: its first compute node, its first comm task
	doneID             []int32    // per comm task: its completion node
	sends              []sendSlot // by tag, open addressing with linear probing
	edges              [][2]int32
	off, succ          []int32 // CSR: node n's successors are succ[off[n]:off[n+1]]
	indeg              []int32 // per node: predecessors not yet timed
	stack              []int32
	phys               []int
}

// newRunner sizes the scratch to the program's largest step. It reads only
// queue lengths, taking every comm task for a receive, which bounds the
// nodes and the edges from above; the table of sends grows on demand.
func newRunner(p *task.Program, cfg *Config, pl Placement) *runner {
	var nodes, edges, comms int // per step, the largest
	for _, st := range p.Steps {
		var c, m int
		for card := range st.Compute {
			c += len(st.Compute[card])
			m += len(st.Comm[card])
		}
		// Queue order, SAC/CAR and transfers: at most 2 edges per compute and
		// 4 per receive.
		nodes, edges, comms = max(nodes, c+2*m), max(edges, 2*c+4*m), max(comms, m)
	}
	return &runner{
		p: p, cfg: cfg, pl: pl,
		res: &Result{
			ComputeBusy:  make([]float64, p.Cards),
			EnergyByUnit: make(map[string]float64, len(energyUnits)+2),
			// Nil for a program without steps, as appending would leave it.
			Steps: slices.Grow([]StepStat(nil), len(p.Steps)),
		},
		costs:    map[int]*[numOps]opCost{},
		memos:    map[*task.Step]*stepMemo{},
		dur:      make([]float64, 0, nodes),
		at:       make([]float64, nodes),
		compBase: make([]int32, p.Cards),
		commBase: make([]int32, p.Cards),
		doneID:   make([]int32, 0, comms),
		edges:    make([][2]int32, 0, edges),
		off:      make([]int32, nodes+1),
		succ:     make([]int32, edges),
		indeg:    make([]int32, nodes),
		stack:    make([]int32, 0, nodes),
	}
}

// run adds the program's steps one after the other, each starting at the
// barrier that ends the one before: a step's sums are added in step order,
// and its trace is shifted by its start.
func (r *runner) run() (*Result, error) {
	res := r.res
	var energy [len(energyUnits)]float64
	comm, computed, sent := 0.0, false, false
	now := 0.0
	for _, st := range r.p.Steps {
		m := r.memos[st]
		if m == nil {
			var err error
			if m, err = r.time(st); err != nil {
				return nil, fmt.Errorf("sim: step %q: %w", st.Name, err)
			}
			r.memos[st] = m
		}
		res.Steps = append(res.Steps, m.stat)
		for card, b := range m.busy {
			res.ComputeBusy[card] += b
		}
		res.BytesSent += m.stat.CommBytes
		for u, e := range m.energy {
			energy[u] += e
		}
		comm += m.comm
		computed, sent = computed || m.computed, sent || m.sent
		res.OpTotals = res.OpTotals.Add(m.ops)
		for _, ev := range m.trace {
			ev.Start, ev.End = now+ev.Start, now+ev.End
			res.Trace = append(res.Trace, ev)
		}
		now += m.stat.Span
	}
	if computed {
		for u, name := range energyUnits {
			res.EnergyByUnit[name] = energy[u]
		}
	}
	if sent {
		res.EnergyByUnit["Comm"] = comm
	}
	res.Makespan = now
	res.EnergyByUnit["Static"] = hw.IdlePowerW * res.Makespan * float64(r.p.Cards)
	return res, nil
}

// costsAt returns what each operation costs at limbs, pricing it on first use.
func (r *runner) costsAt(limbs int) *[numOps]opCost {
	costs := r.costs[limbs]
	if costs == nil {
		costs = new([numOps]opCost)
		for op := range costs {
			parts := r.cfg.Card.EnergyByUnit(fheop.Op(op), limbs, r.cfg.Scheme)
			costs[op].time = r.cfg.Card.OpTime(fheop.Op(op), limbs, r.cfg.Scheme)
			for u, name := range energyUnits {
				costs[op].energy[u] = parts[name]
			}
		}
		r.costs[limbs] = costs
	}
	return costs
}

// duration returns a compute task's duration.
func (r *runner) duration(c *task.Compute) float64 {
	costs := r.costsAt(c.Limbs)
	total := 0.0
	for op, n := range c.Ops {
		if n != 0 {
			total += float64(n) * costs[op].time
		}
	}
	return total
}

// time compiles st and times it from its barrier at t = 0, taking the nodes
// in a topological order (Kahn's): a node completes at the latest completion
// among its predecessors (or 0) plus its duration. A maximum does not depend
// on the order of its terms, so neither do the times.
func (r *runner) time(st *task.Step) (*stepMemo, error) {
	n := r.compile(st)
	at, dur, off, succ, indeg := r.at[:n], r.dur, r.off, r.succ, r.indeg
	clear(at)
	stack := r.stack[:0]
	for id := range n {
		if indeg[id] == 0 {
			stack = append(stack, int32(id))
		}
	}
	timed := 0
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		timed++
		t := at[id] + dur[id]
		at[id] = t
		for _, s := range succ[off[id]:off[id+1]] {
			if t > at[s] {
				at[s] = t
			}
			indeg[s]--
			if indeg[s] == 0 {
				stack = append(stack, s)
			}
		}
	}
	r.stack = stack
	if timed != n {
		return nil, fmt.Errorf("dependency cycle (deadlock) detected: %d of %d tasks runnable", timed, n)
	}
	return r.memo(st, n), nil
}

// memo sums what the timed step adds to the run, over its queues in node
// order.
func (r *runner) memo(st *task.Step, nodes int) *stepMemo {
	m := &stepMemo{stat: StepStat{Name: st.Name}, busy: make([]float64, r.p.Cards)}
	trace := r.cfg.CollectTrace
	if trace {
		m.trace = make([]TraceEvent, 0, nodes)
	}
	at, dur := r.at, r.dur
	end, id := 0.0, 0
	for card := range st.Compute {
		for i := range st.Compute[card] {
			c := &st.Compute[card][i]
			m.account(c, r.costsAt(c.Limbs))
			t, d := at[id], dur[id]
			id++
			if t > end {
				end = t
			}
			m.busy[card] += d
			if trace {
				m.trace = append(m.trace, TraceEvent{Card: card, Kind: "compute", Label: c.Label, Start: t - d, End: t})
			}
		}
		for j := range st.Comm[card] {
			c := &st.Comm[card][j]
			if c.Kind == task.Recv { // its ready signal
				if at[id] > end {
					end = at[id]
				}
				id++
			}
			t, d := at[id], dur[id]
			id++
			if t > end {
				end = t
			}
			if c.Kind == task.Send {
				bytes := c.Bytes * float64(len(c.Peers))
				m.stat.CommBytes += bytes
				m.comm += bytes * hw.EnergyNIC
				m.sent = true
			}
			if trace {
				kind := "send"
				if c.Kind == task.Recv {
					kind = "recv"
				}
				m.trace = append(m.trace, TraceEvent{Card: card, Kind: kind, Label: c.Label, Start: t - d, End: t})
			}
		}
	}
	for _, b := range m.busy {
		if b > m.stat.ComputeMax {
			m.stat.ComputeMax = b
		}
	}
	m.stat.Span = end
	return m
}

// account adds a compute task's dynamic energy and its operations to the
// step's sums; the tasks come in node order.
func (m *stepMemo) account(c *task.Compute, costs *[numOps]opCost) {
	for op, n := range c.Ops {
		if n == 0 {
			continue
		}
		for u, e := range costs[op].energy {
			m.energy[u] += c.EnergyScale * float64(n) * e
		}
		m.computed = true
	}
	m.ops = m.ops.Add(c.Ops)
}

func (r *runner) edge(from, to int32) {
	r.edges = append(r.edges, [2]int32{from, to})
}

// compile builds st's dependency graph in the scratch and returns its node
// count. A receive finds its send through a table by tag: Validate leaves
// one send per tag in a step, and a Builder numbers a step's tags from 0, so
// a lookup takes one probe.
func (r *runner) compile(st *task.Step) int {
	p, cfg, pl := r.p, r.cfg, r.pl

	// --- Nodes ---------------------------------------------------------------
	dur := r.dur[:0]
	r.doneID = r.doneID[:0]
	sends := 0
	for card := 0; card < p.Cards; card++ {
		r.compBase[card] = int32(len(dur))
		for i := range st.Compute[card] {
			dur = append(dur, r.duration(&st.Compute[card][i]))
		}
		r.commBase[card] = int32(len(r.doneID))
		for j := range st.Comm[card] {
			if st.Comm[card][j].Kind == task.Recv { // its ready signal: no time, only the handshake's edges
				dur = append(dur, 0)
			} else {
				sends++
			}
			r.doneID = append(r.doneID, int32(len(dur)))
			dur = append(dur, 0)
		}
	}
	r.dur = dur
	size := 1
	for size < 2*sends {
		size <<= 1
	}
	if len(r.sends) < size {
		r.sends = make([]sendSlot, size)
	}
	table, mask := r.sends[:size], size-1
	clear(table)

	// Queue-order edges, and the sends into the table. The computation queue
	// is strictly serial. The DTU's TX and RX engines are full duplex: sends
	// chain on sends; receive configurations chain on configurations
	// (multi-channel DMA setup), and arrivals drain through the port in order.
	r.edges = r.edges[:0]
	for card := 0; card < p.Cards; card++ {
		cb, mb := r.compBase[card], r.commBase[card]
		for i := int32(1); i < int32(len(st.Compute[card])); i++ {
			r.edge(cb+i-1, cb+i)
		}
		lastSend, lastRecv := int32(-1), int32(-1)
		for j := range st.Comm[card] {
			done := r.doneID[mb+int32(j)]
			if c := &st.Comm[card][j]; c.Kind == task.Send {
				if lastSend >= 0 {
					r.edge(lastSend, done)
				}
				lastSend = done
				h := c.Tag & mask
				for table[h].j != 0 {
					h = (h + 1) & mask
				}
				table[h] = sendSlot{c.Tag, int32(card), int32(j) + 1}
			} else {
				if lastRecv >= 0 {
					r.edge(lastRecv-1, done-1)
					r.edge(lastRecv, done)
				}
				lastRecv = done
			}
		}
	}

	// SAC / CAR / transfer edges.
	for card := 0; card < p.Cards; card++ {
		cb, mb := r.compBase[card], r.commBase[card]
		for i := range st.Compute[card] {
			if w := st.Compute[card][i].WaitRecv; w >= 0 {
				r.edge(r.doneID[mb+int32(w)], cb+int32(i))
			}
		}
		for j := range st.Comm[card] {
			c := &st.Comm[card][j]
			done := r.doneID[mb+int32(j)]
			if c.Kind == task.Send {
				if c.WaitCompute >= 0 {
					r.edge(cb+int32(c.WaitCompute), done)
				}
				// Sender-side injection occupancy.
				r.phys = r.phys[:0]
				for _, peer := range c.Peers {
					r.phys = append(r.phys, pl.Cards[peer])
				}
				dur[done] = cfg.Network.SendTime(c.Bytes, pl.Cards[card], r.phys, pl.CardsPerServer)
				continue
			}
			h := c.Tag & mask
			for table[h].j == 0 || table[h].tag != c.Tag {
				h = (h + 1) & mask
			}
			s := table[h]
			send := r.doneID[r.commBase[s.card]+s.j-1]
			r.edge(done-1, send) // handshake: ready before send
			r.edge(send, done)   // data arrival
			// Receiver-port drain time (store-and-forward).
			dur[done] = cfg.Network.RecvTime(st.Comm[s.card][s.j-1].Bytes, pl.Cards[s.card], pl.Cards[card], pl.CardsPerServer)
		}
	}

	// Successor lists: the edges counting-sorted by source.
	n := len(dur)
	off, succ, indeg := r.off[:n+1], r.succ, r.indeg[:n]
	clear(off)
	clear(indeg)
	for _, e := range r.edges {
		off[e[0]+1]++
		indeg[e[1]]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	for _, e := range r.edges {
		succ[off[e[0]]] = e[1]
		off[e[0]]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return n
}
