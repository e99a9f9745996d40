package main

import (
	"fmt"
	"math"
	"sort"

	"hydra/internal/baseline"
	"hydra/internal/experiments"
	"hydra/internal/isa"
	"hydra/internal/model"
	"hydra/internal/sim"
	"hydra/internal/task"
)

// simFleet regenerates Table II: every measured prototype against every
// benchmark network, each cell lowered (Prototype.Build) and simulated
// (sim.Run). One op is one whole pass, timed cell by cell. The seed changes
// nothing: the simulated results are exact.
//
// One cell of the 24 is left out at full scale: Hydra-L x OPT-6.7B. It is 3 s
// of a 5 s pass on a warm box, allocates 4.8 GB and grows the process to
// 0.9 GB, and on a machine whose memory has not been touched yet (a fresh VM:
// every first page fault goes to the host) it alone took 96 to 185 s, which
// is over the time a whole run is given. Without it a pass stays under
// 0.4 GB, beside the he-* workloads.
type simFleet struct {
	cells []simCell
	// row is the prototype whose stages the per-layer section reports
	// (Hydra-L, the widest): its cells are the last of the pass.
	row string

	// The warm-up pass, which every timed pass must reproduce bit for bit, and
	// what the per-layer section reports of it.
	first []cellResult
	// Of the warm-up pass's lowered programs of row: their task nodes and
	// bytes, and the first (ResNet-18, the smallest), held for resident_mb and
	// for the ISA wire form.
	nodes int
	bytes float64
	prog  *task.Program
}

type simCell struct {
	proto experiments.Prototype
	net   model.Network
}

func (c simCell) String() string { return c.proto.Name + "/" + c.net.Name }

// cellResult is what a pass must reproduce bit for bit (the first three
// fields) and what the per-layer section sums.
type cellResult struct {
	makespan, energy, bytes                float64
	commShare, exposedComm, maxComputeBusy float64
}

// energyOf sums a result's energy contributors in name order. Result's own
// TotalEnergy sums the map in iteration order, which moves the last bit from
// call to call; the per-unit figures themselves are exact.
func energyOf(r *sim.Result) float64 {
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

func newSimFleet(smoke bool) workload {
	protos, nets := experiments.MeasuredPrototypes(), model.Benchmarks()
	if smoke {
		protos = []experiments.Prototype{experiments.HydraS(), experiments.HydraM()}
		nets = nets[:1]
	}
	w := &simFleet{row: protos[len(protos)-1].Name}
	for _, p := range protos {
		for _, net := range nets {
			w.cells = append(w.cells, simCell{p, net})
		}
	}
	if !smoke {
		w.cells = w.cells[:len(w.cells)-1] // Hydra-L x OPT-6.7B, see above
	}
	w.first = make([]cellResult, len(w.cells))
	return w
}

func (w *simFleet) setup(b *bench) error { return nil }

// Warm-up is one whole pass, cell by cell in table order: it touches the
// memory the timed passes will use and is the pass they are checked against.
func (w *simFleet) warmups() int         { return len(w.cells) }
func (w *simFleet) sensitivity() float64 { return 0.7 }

func (w *simFleet) warm(b *bench, i int) error {
	r, prog, err := w.cell(b, i)
	if err != nil {
		return err
	}
	w.first[i] = r
	if w.cells[i].proto.Name != w.row {
		return nil
	}
	for _, st := range prog.Steps {
		for card := range st.Compute {
			w.nodes += len(st.Compute[card]) + len(st.Comm[card])
		}
	}
	w.bytes += prog.TotalBytes()
	if w.prog == nil {
		w.prog = prog
	}
	return nil
}

// cell lowers and simulates cell i as one timed segment and checks the result
// against the paper's table.
func (w *simFleet) cell(b *bench, i int) (cellResult, *task.Program, error) {
	c := w.cells[i]
	var prog *task.Program
	var r *sim.Result
	var err error
	b.segment("bench.cell:"+c.String(), func() {
		b.span("model.build", func() { prog, err = c.proto.Build(c.net) })
		if err == nil {
			b.span("sim.run", func() { r, err = sim.Run(prog, c.proto.Sim) })
		}
	})
	if err != nil {
		return cellResult{}, nil, fmt.Errorf("%s: %w", c, err)
	}
	seconds := r.Makespan * c.proto.ReportScale
	paper := baseline.TableII[c.proto.Name][c.net.Name]
	if !(seconds > 0) || seconds > 2*paper || seconds < paper/2 {
		return cellResult{}, nil, fmt.Errorf("%s: simulated %.3f s is not within 2x of Table II's %.2f s", c, seconds, paper)
	}
	return cellResult{r.Makespan, energyOf(r), r.BytesSent, r.CommShare(), r.ExposedComm(), r.MaxComputeBusy()}, prog, nil
}

func (w *simFleet) op(b *bench) error {
	pass := make([]cellResult, len(w.cells))
	for i := range w.cells {
		var err error
		if pass[i], _, err = w.cell(b, i); err != nil {
			return err
		}
	}
	if b.spoiled() {
		pass[0].makespan *= 1.5
	}
	for i := range pass {
		if pass[i] != w.first[i] {
			return fmt.Errorf("cell %d: %+v differs from the warm-up pass's %+v", i, pass[i], w.first[i])
		}
	}
	return nil
}

func (w *simFleet) layers(b *bench) error {
	// Host time per stage, the row's cells: each cell's median span across the
	// traced passes, summed over the networks.
	byCell := map[string][]float64{}
	for _, s := range b.tr.spans {
		if s.Parent >= 0 && (s.Name == "model.build" || s.Name == "sim.run") {
			key := s.Name + "|" + b.tr.spans[s.Parent].Name
			byCell[key] = append(byCell[key], s.ms()*s.Factor)
		}
	}
	build, run := 0.0, 0.0
	var secs, errs []float64
	for i, c := range w.cells {
		r := w.first[i]
		s := r.makespan * c.proto.ReportScale
		paper := baseline.TableII[c.proto.Name][c.net.Name]
		secs = append(secs, s)
		errs = append(errs, 100*math.Abs(s-paper)/paper)
		if c.proto.Name != w.row {
			continue
		}
		build += median(byCell["model.build|bench.cell:"+c.String()])
		run += median(byCell["sim.run|bench.cell:"+c.String()])
		// What the model says of the row, exact for a commit.
		b.m["sim.comm_share_bert_l"] = r.commShare // the row's last cell: BERT-base at full scale
		b.m["sim.exposed_comm_s"] += r.exposedComm
		b.m["sim.max_compute_busy_s"] += r.maxComputeBusy
		b.m["sim.energy_j"] += r.energy
	}
	b.m["model.build_ms"] = build
	b.m["sim.run_ms"] = run
	b.m["task.nodes"] = float64(w.nodes)
	b.m["task.bytes"] = w.bytes
	if run > 0 {
		b.m["sim.nodes_per_s"] = float64(w.nodes) / (run / 1e3)
	}
	b.m["sim.peak_rss_mb"] = peakRSSMB()
	// The whole pass against the paper.
	b.m["sim.simulated_s_geomean"] = geomean(secs)
	b.m["sim.paper_err_pct"] = sum(errs) / float64(len(errs))

	// The ISA wire form of the row's smallest program (nothing routes through
	// it yet, so it is priced once, not per cell).
	prog := w.prog
	blob, err := isa.Marshal(prog)
	if err != nil {
		return err
	}
	if _, err := isa.Unmarshal(blob); err != nil {
		return err
	}
	b.m["isa.blob_mb"] = float64(len(blob)) / 1e6
	b.m["isa.marshal_ms"] = b.unit(func() { _, _ = isa.Marshal(prog) })
	b.m["isa.unmarshal_ms"] = b.unit(func() { _, _ = isa.Unmarshal(blob) })
	return nil
}
