// Package sim executes Hydra task programs on a discrete-event model of the
// scale-out system: per-card computation and communication engines with the
// hardware handshake of Procedure 1 (ready/finish signals, Send-After-Compute
// and Compute-After-Receive dependences), switch-based point-to-point and
// broadcast transfers, step barriers per Procedure 2, and cards without a DTU
// (FAB-style) whose communication serializes with their computation.
package sim

import (
	"fmt"
	"math"
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

// identity is the trivial placement: logical card i on physical card i.
func identity(p *task.Program) Placement {
	ids := make([]int, p.Cards)
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

// phys maps a slice of logical card IDs to their physical identities.
func (pl Placement) phys(logical []int) []int {
	out := make([]int, len(logical))
	for i, c := range logical {
		out[i] = pl.Cards[c]
	}
	return out
}

// Run executes the program on the configured machine.
func Run(p *task.Program, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
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
	res := &Result{
		ComputeBusy:  make([]float64, p.Cards),
		CommBusy:     make([]float64, p.Cards),
		EnergyByUnit: map[string]float64{},
	}
	now := 0.0
	for _, st := range p.Steps {
		stat, err := runStep(st, p, cfg, pl, now, res)
		if err != nil {
			return nil, fmt.Errorf("sim: step %q: %w", st.Name, err)
		}
		res.Steps = append(res.Steps, stat)
		now += stat.Span
	}
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

type node struct {
	kind     int
	card     int
	index    int // queue index
	duration float64
	time     float64 // completion time (filled by the scheduler)
	preds    []int
	succs    []int
	indeg    int
}

func runStep(st *task.Step, p *task.Program, cfg Config, pl Placement, start float64, res *Result) (StepStat, error) {
	// --- Node construction -------------------------------------------------
	total := 0 // one node per compute task and per comm task, a second per receive
	for card := 0; card < p.Cards; card++ {
		total += len(st.Compute[card]) + len(st.Comm[card])
		for _, c := range st.Comm[card] {
			if c.Kind == task.Recv {
				total++
			}
		}
	}
	nodes := make([]node, 0, total)
	add := func(n node) int {
		nodes = append(nodes, n)
		return len(nodes) - 1
	}
	compID := make([][]int, p.Cards)
	readyID := make([][]int, p.Cards)
	doneID := make([][]int, p.Cards)

	opTime := opTimeCache(cfg)
	for card := 0; card < p.Cards; card++ {
		compID[card] = make([]int, len(st.Compute[card]))
		for i, c := range st.Compute[card] {
			compID[card][i] = add(node{kind: nodeCompute, card: card, index: i, duration: opTime(c.Ops, c.Limbs)})
		}
		readyID[card] = make([]int, len(st.Comm[card]))
		doneID[card] = make([]int, len(st.Comm[card]))
		for j, c := range st.Comm[card] {
			switch c.Kind {
			case task.Recv:
				readyID[card][j] = add(node{kind: nodeRecvReady, card: card, index: j, duration: cfg.DMAConfigLatency})
				doneID[card][j] = add(node{kind: nodeCommDone, card: card, index: j})
			case task.Send:
				readyID[card][j] = -1
				doneID[card][j] = add(node{kind: nodeCommDone, card: card, index: j})
			}
		}
	}

	addEdge := func(from, to int) {
		nodes[to].preds = append(nodes[to].preds, from)
		nodes[from].succs = append(nodes[from].succs, to)
		nodes[to].indeg++
	}

	// Map a comm task to the node that gates its start.
	commStartNode := func(card, j int) int {
		if st.Comm[card][j].Kind == task.Recv {
			return readyID[card][j]
		}
		return doneID[card][j]
	}

	// Locate receives by tag for send pairing.
	type recvRef struct{ card, index int }
	recvByTag := map[int][]recvRef{}
	for card := 0; card < p.Cards; card++ {
		for j, c := range st.Comm[card] {
			if c.Kind == task.Recv {
				recvByTag[c.Tag] = append(recvByTag[c.Tag], recvRef{card, j})
			}
		}
	}

	// Queue-order edges. The computation queue is strictly serial. The DTU's
	// TX and RX engines are full duplex: sends chain on sends; receive
	// configurations chain on configurations (multi-channel DMA setup), and
	// arrivals drain through the port in order.
	for card := 0; card < p.Cards; card++ {
		for i := 1; i < len(compID[card]); i++ {
			addEdge(compID[card][i-1], compID[card][i])
		}
		lastSend, lastRecv := -1, -1
		for j, c := range st.Comm[card] {
			if c.Kind == task.Send {
				if lastSend >= 0 {
					addEdge(doneID[card][lastSend], doneID[card][j])
				}
				lastSend = j
			} else {
				if lastRecv >= 0 {
					addEdge(readyID[card][lastRecv], readyID[card][j])
					addEdge(doneID[card][lastRecv], doneID[card][j])
				}
				lastRecv = j
			}
		}
	}

	// SAC / CAR / transfer edges.
	for card := 0; card < p.Cards; card++ {
		for i, c := range st.Compute[card] {
			if c.WaitRecv >= 0 {
				addEdge(doneID[card][c.WaitRecv], compID[card][i])
			}
		}
		for j, c := range st.Comm[card] {
			if c.Kind != task.Send {
				continue
			}
			send := doneID[card][j]
			if c.WaitCompute >= 0 {
				addEdge(compID[card][c.WaitCompute], send)
			}
			refs := recvByTag[c.Tag]
			for _, ref := range refs {
				addEdge(readyID[ref.card][ref.index], send) // handshake: ready before send
				addEdge(send, doneID[ref.card][ref.index])  // data arrival
				// Receiver-port drain time (store-and-forward).
				nodes[doneID[ref.card][ref.index]].duration =
					cfg.Network.RecvTime(c.Bytes, pl.Cards[card], pl.Cards[ref.card], pl.CardsPerServer)
			}
			// Sender-side injection occupancy.
			nodes[send].duration = cfg.Network.SendTime(c.Bytes, pl.Cards[card], pl.phys(c.Peers), pl.CardsPerServer)
		}
	}

	// Serialization edges for cards without an independent comm engine:
	// every task (both queues) chains in creation order.
	if !cfg.Overlap {
		for card := 0; card < p.Cards; card++ {
			type seqNode struct {
				seq         int
				start, done int
			}
			var order []seqNode
			for i, c := range st.Compute[card] {
				order = append(order, seqNode{c.Seq(), compID[card][i], compID[card][i]})
			}
			for j, c := range st.Comm[card] {
				order = append(order, seqNode{c.Seq(), commStartNode(card, j), doneID[card][j]})
			}
			sort.Slice(order, func(a, b int) bool { return order[a].seq < order[b].seq })
			for k := 1; k < len(order); k++ {
				addEdge(order[k-1].done, order[k].start)
			}
		}
	}

	// --- Kahn scheduling ---------------------------------------------------
	queue := make([]int, 0, len(nodes))
	for id := range nodes {
		if nodes[id].indeg == 0 {
			queue = append(queue, id)
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		n := &nodes[id]
		t := start
		for _, pid := range n.preds {
			if nodes[pid].time > t {
				t = nodes[pid].time
			}
		}
		n.time = t + n.duration
		processed++
		for _, sid := range n.succs {
			nodes[sid].indeg--
			if nodes[sid].indeg == 0 {
				queue = append(queue, sid)
			}
		}
	}
	if processed != len(nodes) {
		return StepStat{}, fmt.Errorf("dependency cycle (deadlock) detected: %d of %d tasks runnable", processed, len(nodes))
	}

	// --- Statistics and energy ----------------------------------------------
	stat := StepStat{Name: st.Name}
	end := start
	computeBusy := make([]float64, p.Cards)
	for id := range nodes {
		n := &nodes[id]
		if n.time > end {
			end = n.time
		}
		switch n.kind {
		case nodeCompute:
			computeBusy[n.card] += n.duration
			res.ComputeBusy[n.card] += n.duration
			if cfg.CollectTrace {
				res.Trace = append(res.Trace, TraceEvent{
					Card: n.card, Kind: "compute",
					Label: st.Compute[n.card][n.index].Label,
					Start: n.time - n.duration, End: n.time,
				})
			}
		case nodeCommDone:
			c := st.Comm[n.card][n.index]
			if c.Kind == task.Send {
				res.CommBusy[n.card] += n.duration
				bytes := c.Bytes * float64(len(c.Peers))
				res.BytesSent += bytes
				stat.CommBytes += bytes
				res.EnergyByUnit["Comm"] += bytes * cfg.Card.EnergyNIC
			}
			if cfg.CollectTrace {
				kind := "send"
				if c.Kind == task.Recv {
					kind = "recv"
				}
				res.Trace = append(res.Trace, TraceEvent{
					Card: n.card, Kind: kind, Label: c.Label,
					Start: n.time - n.duration, End: n.time,
				})
			}
		}
	}
	for card := 0; card < p.Cards; card++ {
		if computeBusy[card] > stat.ComputeMax {
			stat.ComputeMax = computeBusy[card]
		}
		for _, c := range st.Compute[card] {
			accumulateOpEnergy(res, cfg, c.Ops, c.Limbs, c.EnergyScale)
			res.OpTotals = res.OpTotals.Add(c.Ops)
		}
	}
	stat.Span = end - start
	if stat.Span < 0 || math.IsNaN(stat.Span) {
		return StepStat{}, fmt.Errorf("invalid step span %v", stat.Span)
	}
	return stat, nil
}

// opTimeCache memoizes per-(op,limbs) latencies for the step.
func opTimeCache(cfg Config) func(fheop.Counts, int) float64 {
	type key struct {
		op    fheop.Op
		limbs int
	}
	cache := map[key]float64{}
	return func(ops fheop.Counts, limbs int) float64 {
		total := 0.0
		for _, op := range fheop.Ops() {
			n := ops.Get(op)
			if n == 0 {
				continue
			}
			k := key{op, limbs}
			t, ok := cache[k]
			if !ok {
				t = cfg.Card.OpTime(op, limbs, cfg.Scheme)
				cache[k] = t
			}
			total += float64(n) * t
		}
		return total
	}
}

var energyUnits = []string{"NTT", "MA", "MM", "Auto", "HBM"}

func accumulateOpEnergy(res *Result, cfg Config, ops fheop.Counts, limbs int, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	for _, op := range fheop.Ops() {
		n := ops.Get(op)
		if n == 0 {
			continue
		}
		parts := cfg.Card.EnergyByUnit(op, limbs, cfg.Scheme)
		for _, u := range energyUnits {
			res.EnergyByUnit[u] += scale * float64(n) * parts[u]
		}
	}
}
