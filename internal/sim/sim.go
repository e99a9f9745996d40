// Package sim executes Hydra task programs on a discrete-event model of the
// scale-out system: per-card computation and communication engines with the
// hardware handshake of Procedure 1 (ready/finish signals, Send-After-Compute
// and Compute-After-Receive dependences), switch-based point-to-point and
// broadcast transfers, host-relayed transfers (FAB-style), and step barriers
// per Procedure 2.
package sim

import (
	"cmp"
	"fmt"
	"math"
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
	// DMAConfigLatency is the receive-side configuration time before the
	// ready signal is handshaked back to the sender (Procedure 1 steps 5-6).
	DMAConfigLatency float64
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
		Scheme:           hw.PaperScheme(),
		Card:             hw.HydraCard(),
		Network:          hw.HydraNetwork(),
		DMAConfigLatency: 0.5e-6,
	}
}

// FABConfig returns the FAB multi-card machine configuration: host-relayed
// transfers (PCIe + LAN with a host round trip per dependency). DMA to the
// host proceeds concurrently with the FPGA kernels, but every transfer pays
// the host-managed path, which is what erodes FAB's scalability (Fig. 8).
func FABConfig() Config {
	return Config{
		Scheme:           hw.PaperScheme(),
		Card:             hw.FABCard(),
		Network:          hw.FABNetwork(),
		DMAConfigLatency: 5e-6, // host-mediated descriptor setup
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
	CommBusy    []float64 // per card (sender side)
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

// recvRef is a receive of the step.
type recvRef struct {
	tag         int
	card, index int32
}

// shape is a step's dependency graph compiled for timing. Its nodes are
// numbered in queue order: each card's computes, then its comm tasks, a
// receive's ready signal before its completion.
type shape struct {
	dur       []float64 // per node
	order     []int32   // the nodes in a topological order
	off, succ []int32   // CSR: node n's successors are succ[off[n]:off[n+1]], in edge order
}

// runner schedules the steps of one RunOn call. It compiles each distinct
// *task.Step into a shape once (a program repeats a step by pointer) and
// times every occurrence from its shape. It owns every buffer a step needs,
// sized to the program's largest step, and it prices each (op, limbs) pair
// once per run.
type runner struct {
	p   *task.Program
	cfg *Config
	pl  Placement
	res *Result

	costs    map[int]*[numOps]opCost // per limb count
	energy   [len(energyUnits)]float64
	computed bool // some task ran an operation: the units of energy are in the result
	comm     float64
	sent     bool // some task sent: "Comm" is in the result

	shapes map[*task.Step]*shape

	at   []float64 // per node: the latest completion among its predecessors, then its own
	busy []float64 // per card: compute time in the step

	// Compilation scratch.
	dur                []float64
	compBase, commBase []int32 // per card: its first compute node, its first comm task
	readyID, doneID    []int32 // per comm task: its ready node (-1 for a send), its done node
	edges              [][2]int32
	indeg              []int32 // per node: predecessors not yet ordered
	stack              []int32
	recvs              []recvRef // by tag, each tag's in queue order
	phys               []int
}

// newRunner sizes every buffer to the program's largest step, so no step
// grows one. It reads only queue lengths, taking every comm task for a
// receive, which bounds the nodes and the edges from above.
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
			CommBusy:     make([]float64, p.Cards),
			EnergyByUnit: make(map[string]float64, len(energyUnits)+2),
			// Nil for a program without steps, as appending would leave it.
			Steps: slices.Grow([]StepStat(nil), len(p.Steps)),
		},
		costs:    map[int]*[numOps]opCost{},
		shapes:   map[*task.Step]*shape{},
		at:       make([]float64, nodes),
		dur:      make([]float64, 0, nodes),
		compBase: make([]int32, p.Cards),
		commBase: make([]int32, p.Cards),
		readyID:  make([]int32, 0, comms),
		doneID:   make([]int32, 0, comms),
		edges:    make([][2]int32, 0, edges),
		indeg:    make([]int32, nodes),
		stack:    make([]int32, 0, nodes),
		busy:     make([]float64, p.Cards),
		recvs:    make([]recvRef, 0, comms),
	}
}

// run schedules the program's steps one after the other, each starting at
// the barrier that ends the one before.
func (r *runner) run() (*Result, error) {
	res := r.res
	now := 0.0
	for _, st := range r.p.Steps {
		stat, err := r.step(st, now)
		if err != nil {
			return nil, fmt.Errorf("sim: step %q: %w", st.Name, err)
		}
		res.Steps = append(res.Steps, stat)
		now += stat.Span
	}
	r.writeEnergy()
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

// account adds a compute task's dynamic energy and its operations to the
// run's totals; the tasks come in run order.
func (r *runner) account(c *task.Compute) {
	costs := r.costsAt(c.Limbs)
	scale := c.EnergyScale
	if scale <= 0 {
		scale = 1
	}
	for op, n := range c.Ops {
		if n == 0 {
			continue
		}
		for u, e := range costs[op].energy {
			r.energy[u] += scale * float64(n) * e
		}
		r.computed = true
	}
	r.res.OpTotals = r.res.OpTotals.Add(c.Ops)
}

// writeEnergy puts the run's dynamic energy into the result, one key per
// contributor the run touched.
func (r *runner) writeEnergy() {
	if r.computed {
		for u, name := range energyUnits {
			r.res.EnergyByUnit[name] = r.energy[u]
		}
	}
	if r.sent {
		r.res.EnergyByUnit["Comm"] = r.comm
	}
}

// step times the step from its shape by forward propagation: a node
// completes at the latest completion among its predecessors (or the step
// start) plus its duration.
func (r *runner) step(st *task.Step, start float64) (StepStat, error) {
	sh, err := r.shape(st)
	if err != nil {
		return StepStat{}, err
	}
	at := r.at[:len(sh.dur)]
	for id := range at {
		at[id] = start
	}
	for _, id := range sh.order {
		t := at[id] + sh.dur[id]
		at[id] = t
		for _, s := range sh.succ[sh.off[id]:sh.off[id+1]] {
			if t > at[s] {
				at[s] = t
			}
		}
	}

	// --- Statistics, over the step's own queues in node order --------------
	cfg, res := r.cfg, r.res
	stat := StepStat{Name: st.Name}
	end := start
	clear(r.busy)
	id := 0
	for card := range st.Compute {
		for i := range st.Compute[card] {
			c := &st.Compute[card][i]
			r.account(c)
			t, d := at[id], sh.dur[id]
			id++
			if t > end {
				end = t
			}
			r.busy[card] += d
			res.ComputeBusy[card] += d
			if cfg.CollectTrace {
				res.Trace = append(res.Trace, TraceEvent{Card: card, Kind: "compute", Label: c.Label, Start: t - d, End: t})
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
			t, d := at[id], sh.dur[id]
			id++
			if t > end {
				end = t
			}
			if c.Kind == task.Send {
				res.CommBusy[card] += d
				bytes := c.Bytes * float64(len(c.Peers))
				res.BytesSent += bytes
				stat.CommBytes += bytes
				r.comm += bytes * hw.EnergyNIC
				r.sent = true
			}
			if cfg.CollectTrace {
				kind := "send"
				if c.Kind == task.Recv {
					kind = "recv"
				}
				res.Trace = append(res.Trace, TraceEvent{Card: card, Kind: kind, Label: c.Label, Start: t - d, End: t})
			}
		}
	}
	for _, b := range r.busy {
		if b > stat.ComputeMax {
			stat.ComputeMax = b
		}
	}
	stat.Span = end - start
	if stat.Span < 0 || math.IsNaN(stat.Span) {
		return StepStat{}, fmt.Errorf("invalid step span %v", stat.Span)
	}
	return stat, nil
}

// shape returns st's compiled dependency graph, compiling it on st's first
// occurrence.
func (r *runner) shape(st *task.Step) (*shape, error) {
	if sh := r.shapes[st]; sh != nil {
		return sh, nil
	}
	sh, err := r.compile(st)
	if err == nil {
		r.shapes[st] = sh
	}
	return sh, err
}

func (r *runner) edge(from, to int32) {
	r.edges = append(r.edges, [2]int32{from, to})
}

// compile builds st's dependency graph and orders it topologically.
func (r *runner) compile(st *task.Step) (*shape, error) {
	p, cfg, pl := r.p, r.cfg, r.pl

	// --- Nodes, and receives by tag for send pairing -----------------------
	dur := r.dur[:0]
	r.readyID, r.doneID, r.recvs = r.readyID[:0], r.doneID[:0], r.recvs[:0]
	for card := 0; card < p.Cards; card++ {
		r.compBase[card] = int32(len(dur))
		for i := range st.Compute[card] {
			dur = append(dur, r.duration(&st.Compute[card][i]))
		}
		r.commBase[card] = int32(len(r.doneID))
		for j := range st.Comm[card] {
			c := &st.Comm[card][j]
			ready := int32(-1)
			if c.Kind == task.Recv {
				ready = int32(len(dur))
				dur = append(dur, cfg.DMAConfigLatency)
				r.recvs = append(r.recvs, recvRef{c.Tag, int32(card), int32(j)})
			}
			r.readyID = append(r.readyID, ready)
			r.doneID = append(r.doneID, int32(len(dur)))
			dur = append(dur, 0)
		}
	}
	r.dur = dur
	slices.SortStableFunc(r.recvs, func(a, b recvRef) int { return cmp.Compare(a.tag, b.tag) })

	// Queue-order edges. The computation queue is strictly serial. The DTU's
	// TX and RX engines are full duplex: sends chain on sends; receive
	// configurations chain on configurations (multi-channel DMA setup), and
	// arrivals drain through the port in order.
	r.edges = r.edges[:0]
	for card := 0; card < p.Cards; card++ {
		cb, mb := r.compBase[card], r.commBase[card]
		for i := int32(1); i < int32(len(st.Compute[card])); i++ {
			r.edge(cb+i-1, cb+i)
		}
		lastSend, lastRecv := int32(-1), int32(-1)
		for j := range st.Comm[card] {
			k := mb + int32(j)
			if st.Comm[card][j].Kind == task.Send {
				if lastSend >= 0 {
					r.edge(r.doneID[lastSend], r.doneID[k])
				}
				lastSend = k
			} else {
				if lastRecv >= 0 {
					r.edge(r.readyID[lastRecv], r.readyID[k])
					r.edge(r.doneID[lastRecv], r.doneID[k])
				}
				lastRecv = k
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
			if c.Kind != task.Send {
				continue
			}
			send := r.doneID[mb+int32(j)]
			if c.WaitCompute >= 0 {
				r.edge(cb+int32(c.WaitCompute), send)
			}
			k, _ := slices.BinarySearchFunc(r.recvs, c.Tag, func(ref recvRef, tag int) int { return cmp.Compare(ref.tag, tag) })
			for ; k < len(r.recvs) && r.recvs[k].tag == c.Tag; k++ {
				ref := r.recvs[k]
				rk := r.commBase[ref.card] + ref.index
				r.edge(r.readyID[rk], send) // handshake: ready before send
				r.edge(send, r.doneID[rk])  // data arrival
				// Receiver-port drain time (store-and-forward).
				dur[r.doneID[rk]] = cfg.Network.RecvTime(c.Bytes, pl.Cards[card], pl.Cards[ref.card], pl.CardsPerServer)
			}
			// Sender-side injection occupancy.
			r.phys = r.phys[:0]
			for _, peer := range c.Peers {
				r.phys = append(r.phys, pl.Cards[peer])
			}
			dur[send] = cfg.Network.SendTime(c.Bytes, pl.Cards[card], r.phys, pl.CardsPerServer)
		}
	}

	// Successor lists: the edges counting-sorted by source.
	n := len(dur)
	ints := make([]int32, 2*n+1+len(r.edges))
	sh := &shape{
		dur:   append(make([]float64, 0, n), dur...),
		order: ints[:0:n],
		off:   ints[n : 2*n+1 : 2*n+1],
		succ:  ints[2*n+1:],
	}
	off, succ, indeg := sh.off, sh.succ, r.indeg[:n]
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

	// --- Kahn: the order, and cycle detection -------------------------------
	stack := r.stack[:0]
	for id := range indeg {
		if indeg[id] == 0 {
			stack = append(stack, int32(id))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sh.order = append(sh.order, id)
		for _, s := range succ[off[id]:off[id+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				stack = append(stack, s)
			}
		}
	}
	r.stack = stack
	if len(sh.order) != n {
		return nil, fmt.Errorf("dependency cycle (deadlock) detected: %d of %d tasks runnable", len(sh.order), n)
	}
	return sh, nil
}
