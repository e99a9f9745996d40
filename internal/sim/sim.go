// Package sim executes Hydra task programs on a discrete-event model of the
// scale-out system: per-card computation and communication engines with the
// hardware handshake of Procedure 1 (ready/finish signals, Send-After-Compute
// and Compute-After-Receive dependences), switch-based point-to-point and
// broadcast transfers, step barriers per Procedure 2, and cards without a DTU
// (FAB-style) whose communication serializes with their computation.
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
	// Overlap reports whether communication proceeds concurrently with
	// computation (Hydra's DTU). When false (FAB), each card's two queues
	// serialize on one engine in program order.
	Overlap bool
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
		Overlap:          true,
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
		Overlap:          true,
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
	// Batch is the number of interchangeable jobs sharing this execution as
	// one batched run (continuous batching in the serving layer). 0 and 1
	// mean a private run. b > 1 dilates the run's time line by the
	// amortization factor a + (1-a)*b, where a = Card.BatchAmortFrac is the
	// fraction of a single run that batching amortizes (pipeline fill,
	// evaluation-key loads, per-limb setup); traffic and dynamic energy
	// scale with b, since the batch moves every job's data.
	Batch int
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
	if pl.Batch < 0 {
		return fmt.Errorf("sim: placement batch must be non-negative, got %d", pl.Batch)
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
	r := newRunner(p, &cfg, pl)
	res := r.res
	now := 0.0
	for _, st := range p.Steps {
		stat, err := r.step(st, now)
		if err != nil {
			return nil, fmt.Errorf("sim: step %q: %w", st.Name, err)
		}
		res.Steps = append(res.Steps, stat)
		now += stat.Span
	}
	r.writeEnergy()
	if pl.Batch > 1 {
		now = scaleForBatch(res, now, pl.Batch, cfg.Card.BatchAmortFrac)
	}
	res.Makespan = now
	res.EnergyByUnit["Static"] = cfg.Card.IdlePowerW * res.Makespan * float64(p.Cards)
	return res, nil
}

// batchFactor is the batched-run time dilation: a batch of b interchangeable
// jobs takes t*(a + (1-a)*b), where t is the single-run time and a is the
// amortizable fraction of t (BatchAmortFrac). a = 0 means no amortization
// (b jobs cost b runs); a = 1 means the batch rides entirely on the first
// job's schedule. HydraCard's a = 0.38 reproduces the measured 1.50x
// kernel-level speedup at batch 8: 8/(0.38 + 0.62*8) = 1.498.
func batchFactor(b int, a float64) float64 {
	if b <= 1 {
		return 1
	}
	return a + (1-a)*float64(b)
}

// scaleForBatch turns a single-run result into the batched-run result: time
// quantities dilate by batchFactor, traffic and the dynamic energy accrued
// so far scale with the jobs carried. OpTotals and the trace keep the
// single-run schedule (the batch replays it, it does not reshape it).
func scaleForBatch(res *Result, makespan float64, batch int, amortFrac float64) float64 {
	f := batchFactor(batch, amortFrac)
	b := float64(batch)
	for i := range res.Steps {
		res.Steps[i].Span *= f
		res.Steps[i].ComputeMax *= f
		res.Steps[i].CommBytes *= b
	}
	for c := range res.ComputeBusy {
		res.ComputeBusy[c] *= f
		res.CommBusy[c] *= f
	}
	res.BytesSent *= b
	for unit := range res.EnergyByUnit {
		res.EnergyByUnit[unit] *= b
	}
	return makespan * f
}

// node kinds in the step dependency graph.
const (
	nodeCompute = iota
	nodeRecvReady
	nodeCommDone // send completion or receive completion
)

// node is one vertex of a step's dependency graph: a compute task, the ready
// signal of a receive, or the completion of a send or a receive.
type node struct {
	duration float64
	ready    float64 // latest completion among the predecessors scheduled so far, at least the step start
	time     float64 // completion time, once scheduled
	card     int32
	index    int32 // queue index
	indeg    int32 // predecessors not yet scheduled
	kind     uint8
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

// recvRef is a receive of the step, chained to the next receive of its tag.
type recvRef struct{ card, index, next int32 }

// tagRecvs is the first and the last receive of a tag in recvRef order.
type tagRecvs struct{ first, last int32 }

// seqNode is a task in a serialized card's merged creation order.
type seqNode struct {
	seq         int
	start, done int32
}

// runner schedules the steps of one RunOn call. It owns every buffer a step
// needs, grown to the largest step so far and reused by the next, so a step
// allocates nothing once they have grown; and it prices each (op, limbs) pair
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

	nodes              []node
	compBase, commBase []int32 // per card: its first compute node, its first comm task
	readyID, doneID    []int32 // per comm task: its ready node (-1 for a send), its done node
	edges              [][2]int32
	off, succ          []int32 // CSR: node n's successors are succ[off[n]:off[n+1]], in edge order
	queue              []int32
	busy               []float64 // per card: compute time in the step
	recvs              []recvRef
	recvByTag          map[int]tagRecvs
	phys               []int
	order              []seqNode
}

func newRunner(p *task.Program, cfg *Config, pl Placement) *runner {
	return &runner{
		p: p, cfg: cfg, pl: pl,
		res: &Result{
			ComputeBusy:  make([]float64, p.Cards),
			CommBusy:     make([]float64, p.Cards),
			EnergyByUnit: make(map[string]float64, len(energyUnits)+2),
		},
		costs:     map[int]*[numOps]opCost{},
		compBase:  make([]int32, p.Cards),
		commBase:  make([]int32, p.Cards),
		busy:      make([]float64, p.Cards),
		recvByTag: map[int]tagRecvs{},
	}
}

// resize returns s with length n, reusing its array when it is large enough.
// The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (r *runner) add(n node) int32 {
	r.nodes = append(r.nodes, n)
	return int32(len(r.nodes) - 1)
}

func (r *runner) edge(from, to int32) {
	r.edges = append(r.edges, [2]int32{from, to})
	r.nodes[to].indeg++
}

// price returns a compute task's duration, and adds its dynamic energy and
// its operations to the run's totals in task order.
func (r *runner) price(c *task.Compute) float64 {
	costs := r.costs[c.Limbs]
	if costs == nil {
		costs = new([numOps]opCost)
		for op := range costs {
			parts := r.cfg.Card.EnergyByUnit(fheop.Op(op), c.Limbs, r.cfg.Scheme)
			costs[op].time = r.cfg.Card.OpTime(fheop.Op(op), c.Limbs, r.cfg.Scheme)
			for u, name := range energyUnits {
				costs[op].energy[u] = parts[name]
			}
		}
		r.costs[c.Limbs] = costs
	}
	scale := c.EnergyScale
	if scale <= 0 {
		scale = 1
	}
	total := 0.0
	for op, n := range c.Ops {
		if n == 0 {
			continue
		}
		total += float64(n) * costs[op].time
		for u, e := range costs[op].energy {
			r.energy[u] += scale * float64(n) * e
		}
		r.computed = true
	}
	r.res.OpTotals = r.res.OpTotals.Add(c.Ops)
	return total
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

// step builds the step's dependency graph and times it in topological order
// by forward propagation: a node completes at the latest completion among its
// predecessors (or the step start) plus its duration.
func (r *runner) step(st *task.Step, start float64) (StepStat, error) {
	p, cfg, pl := r.p, r.cfg, r.pl

	// --- Node construction, and receives by tag for send pairing -----------
	r.nodes, r.readyID, r.doneID, r.recvs = r.nodes[:0], r.readyID[:0], r.doneID[:0], r.recvs[:0]
	clear(r.recvByTag)
	for card := 0; card < p.Cards; card++ {
		r.compBase[card] = int32(len(r.nodes))
		for i := range st.Compute[card] {
			r.add(node{kind: nodeCompute, card: int32(card), index: int32(i), duration: r.price(&st.Compute[card][i]), ready: start})
		}
		r.commBase[card] = int32(len(r.doneID))
		for j := range st.Comm[card] {
			c := &st.Comm[card][j]
			ready := int32(-1)
			if c.Kind == task.Recv {
				ready = r.add(node{kind: nodeRecvReady, card: int32(card), index: int32(j), duration: cfg.DMAConfigLatency, ready: start})
				id := int32(len(r.recvs))
				r.recvs = append(r.recvs, recvRef{card: int32(card), index: int32(j), next: -1})
				if t, ok := r.recvByTag[c.Tag]; ok {
					r.recvs[t.last].next = id
					r.recvByTag[c.Tag] = tagRecvs{t.first, id}
				} else {
					r.recvByTag[c.Tag] = tagRecvs{id, id}
				}
			}
			r.readyID = append(r.readyID, ready)
			r.doneID = append(r.doneID, r.add(node{kind: nodeCommDone, card: int32(card), index: int32(j), ready: start}))
		}
	}

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
			t, ok := r.recvByTag[c.Tag]
			for k := t.first; ok && k >= 0; k = r.recvs[k].next {
				ref := r.recvs[k]
				rk := r.commBase[ref.card] + ref.index
				r.edge(r.readyID[rk], send) // handshake: ready before send
				r.edge(send, r.doneID[rk])  // data arrival
				// Receiver-port drain time (store-and-forward).
				r.nodes[r.doneID[rk]].duration =
					cfg.Network.RecvTime(c.Bytes, pl.Cards[card], pl.Cards[ref.card], pl.CardsPerServer)
			}
			// Sender-side injection occupancy.
			r.phys = r.phys[:0]
			for _, peer := range c.Peers {
				r.phys = append(r.phys, pl.Cards[peer])
			}
			r.nodes[send].duration = cfg.Network.SendTime(c.Bytes, pl.Cards[card], r.phys, pl.CardsPerServer)
		}
	}

	// Serialization edges for cards without an independent comm engine:
	// every task (both queues) chains in creation order.
	if !cfg.Overlap {
		for card := 0; card < p.Cards; card++ {
			cb, mb := r.compBase[card], r.commBase[card]
			order := r.order[:0]
			for i := range st.Compute[card] {
				id := cb + int32(i)
				order = append(order, seqNode{st.Compute[card][i].Seq(), id, id})
			}
			for j := range st.Comm[card] {
				k := mb + int32(j)
				first := r.doneID[k]
				if st.Comm[card][j].Kind == task.Recv {
					first = r.readyID[k]
				}
				order = append(order, seqNode{st.Comm[card][j].Seq(), first, r.doneID[k]})
			}
			slices.SortFunc(order, func(a, b seqNode) int { return cmp.Compare(a.seq, b.seq) })
			for k := 1; k < len(order); k++ {
				r.edge(order[k-1].done, order[k].start)
			}
			r.order = order
		}
	}

	// Successor lists: the edges counting-sorted by source.
	n := len(r.nodes)
	off := resize(r.off, n+1)
	clear(off)
	for _, e := range r.edges {
		off[e[0]+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	succ := resize(r.succ, len(r.edges))
	for _, e := range r.edges {
		succ[off[e[0]]] = e[1]
		off[e[0]]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	r.off, r.succ = off, succ

	// --- Kahn scheduling ---------------------------------------------------
	nodes := r.nodes
	queue := r.queue[:0]
	for id := range nodes {
		if nodes[id].indeg == 0 {
			queue = append(queue, int32(id))
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		nd := &nodes[id]
		nd.time = nd.ready + nd.duration
		processed++
		for _, sid := range succ[off[id]:off[id+1]] {
			s := &nodes[sid]
			if nd.time > s.ready {
				s.ready = nd.time
			}
			s.indeg--
			if s.indeg == 0 {
				queue = append(queue, sid)
			}
		}
	}
	r.queue = queue
	if processed != n {
		return StepStat{}, fmt.Errorf("dependency cycle (deadlock) detected: %d of %d tasks runnable", processed, n)
	}

	// --- Statistics --------------------------------------------------------
	res := r.res
	stat := StepStat{Name: st.Name}
	end := start
	clear(r.busy)
	for id := range nodes {
		nd := &nodes[id]
		if nd.time > end {
			end = nd.time
		}
		switch nd.kind {
		case nodeCompute:
			r.busy[nd.card] += nd.duration
			res.ComputeBusy[nd.card] += nd.duration
			if cfg.CollectTrace {
				res.Trace = append(res.Trace, TraceEvent{
					Card: int(nd.card), Kind: "compute",
					Label: st.Compute[nd.card][nd.index].Label,
					Start: nd.time - nd.duration, End: nd.time,
				})
			}
		case nodeCommDone:
			c := &st.Comm[nd.card][nd.index]
			if c.Kind == task.Send {
				res.CommBusy[nd.card] += nd.duration
				bytes := c.Bytes * float64(len(c.Peers))
				res.BytesSent += bytes
				stat.CommBytes += bytes
				r.comm += bytes * cfg.Card.EnergyNIC
				r.sent = true
			}
			if cfg.CollectTrace {
				kind := "send"
				if c.Kind == task.Recv {
					kind = "recv"
				}
				res.Trace = append(res.Trace, TraceEvent{
					Card: int(nd.card), Kind: kind, Label: c.Label,
					Start: nd.time - nd.duration, End: nd.time,
				})
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
