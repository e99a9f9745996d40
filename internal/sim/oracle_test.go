package sim

// The reference scheduler: the simulator as it was before each step was
// scheduled from flat, reused arrays. Every node keeps its predecessor and
// successor lists, each step prices its operations through its own cache and
// pulls a node's start time from its predecessors. TestRunMatchesOracle
// requires RunOn to return exactly what this returns.

import (
	"fmt"
	"math"
	"sort"

	"hydra/internal/fheop"
	"hydra/internal/task"
)

// runOnOracle is RunOn on the reference scheduler.
func runOnOracle(p *task.Program, cfg Config, pl Placement) (*Result, error) {
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

// physOf maps a slice of logical card IDs to their physical identities.
func physOf(pl Placement, logical []int) []int {
	out := make([]int, len(logical))
	for i, c := range logical {
		out[i] = pl.Cards[c]
	}
	return out
}

// node kinds in the step dependency graph.
const (
	nodeCompute = iota
	nodeRecvReady
	nodeCommDone // send completion or receive completion
)

type refNode struct {
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
	nodes := make([]refNode, 0, total)
	add := func(n refNode) int {
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
			compID[card][i] = add(refNode{kind: nodeCompute, card: card, index: i, duration: opTime(c.Ops, c.Limbs)})
		}
		readyID[card] = make([]int, len(st.Comm[card]))
		doneID[card] = make([]int, len(st.Comm[card]))
		for j, c := range st.Comm[card] {
			switch c.Kind {
			case task.Recv:
				readyID[card][j] = add(refNode{kind: nodeRecvReady, card: card, index: j, duration: cfg.DMAConfigLatency})
				doneID[card][j] = add(refNode{kind: nodeCommDone, card: card, index: j})
			case task.Send:
				readyID[card][j] = -1
				doneID[card][j] = add(refNode{kind: nodeCommDone, card: card, index: j})
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
			nodes[send].duration = cfg.Network.SendTime(c.Bytes, pl.Cards[card], physOf(pl, c.Peers), pl.CardsPerServer)
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
