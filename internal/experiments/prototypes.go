// Package experiments regenerates every table and figure of the paper's
// evaluation section: prototype definitions (Hydra-S/M/L, FAB-S/M/L,
// Poseidon), the benchmark runner that lowers a network through the mapping
// strategies onto a prototype and simulates it, and one generator per
// table/figure.
package experiments

import (
	"fmt"

	"hydra/internal/hw"
	"hydra/internal/mapping"
	"hydra/internal/model"
	"hydra/internal/sim"
	"hydra/internal/task"
)

// Prototype is one machine configuration of Section V-A.
type Prototype struct {
	Name           string
	Cards          int
	CardsPerServer int
	Sim            sim.Config
	// ReportScale aligns the analytic cost model's absolute times with the
	// paper's single-card numbers (which come from the authors' RTL-informed
	// simulator): one scalar per card family, fitted on the ResNet-18 row of
	// Table II and applied uniformly when reporting absolute seconds. It
	// rescales reported wall clock only — speedups, overlap and
	// communication shares are produced by the unscaled simulation.
	ReportScale float64
}

// Report family calibration constants (see EXPERIMENTS.md).
const (
	hydraReportScale    = 41.29 / 203.92
	fabReportScale      = 131.94 / 584.35
	poseidonReportScale = 55.05 / 243.96
)

// HydraS is one server with one Hydra card.
func HydraS() Prototype {
	return Prototype{Name: "Hydra-S", Cards: 1, CardsPerServer: 1, Sim: sim.HydraConfig(), ReportScale: hydraReportScale}
}

// HydraM is one server with eight Hydra cards behind the in-server switch.
func HydraM() Prototype {
	return Prototype{Name: "Hydra-M", Cards: 8, CardsPerServer: 8, Sim: sim.HydraConfig(), ReportScale: hydraReportScale}
}

// HydraL is eight servers with 64 Hydra cards.
func HydraL() Prototype {
	return Prototype{Name: "Hydra-L", Cards: 64, CardsPerServer: 8, Sim: sim.HydraConfig(), ReportScale: hydraReportScale}
}

// HydraN is a Hydra prototype with an arbitrary card count (Fig. 9 sweeps);
// servers hold eight cards.
func HydraN(cards int) Prototype {
	cps := 8
	if cards < 8 {
		cps = cards
	}
	return Prototype{Name: fmt.Sprintf("Hydra-%d", cards), Cards: cards, CardsPerServer: cps, Sim: sim.HydraConfig(), ReportScale: hydraReportScale}
}

// FABS is FAB's single card.
func FABS() Prototype {
	return Prototype{Name: "FAB-S", Cards: 1, CardsPerServer: 1, Sim: sim.FABConfig(), ReportScale: fabReportScale}
}

// FABM is FAB's 8-card architecture: two cards per host, host-relayed
// transfers.
func FABM() Prototype {
	return Prototype{Name: "FAB-M", Cards: 8, CardsPerServer: 2, Sim: sim.FABConfig(), ReportScale: fabReportScale}
}

// FABL extends FAB's architecture to 64 cards for the scalability
// comparison of Fig. 8.
func FABL() Prototype {
	return Prototype{Name: "FAB-L", Cards: 64, CardsPerServer: 2, Sim: sim.FABConfig(), ReportScale: fabReportScale}
}

// Poseidon is the Poseidon single card.
func Poseidon() Prototype {
	cfg := sim.HydraConfig()
	cfg.Card = hw.PoseidonCard()
	return Prototype{Name: "Poseidon", Cards: 1, CardsPerServer: 1, Sim: cfg, ReportScale: poseidonReportScale}
}

// OpTimes returns the Eq. 1 latencies for this prototype: per-op card
// latencies plus the cost of one intra-server ciphertext transfer (zero on a
// single card).
func (p Prototype) OpTimes() mapping.OpTimes {
	s := p.Sim.Scheme
	com := 0.0
	if p.Cards > 1 {
		com = p.Sim.Network.TransferTime(float64(s.CiphertextBytes(s.BootLimbs())), 0, 1, p.CardsPerServer)
	}
	return mapping.OpTimesFor(p.Sim.Card, s, s.BootLimbs(), com)
}

// Build lowers a network onto this prototype's cards.
func (p Prototype) Build(net model.Network) (*task.Program, error) {
	b := task.NewBuilder(p.Cards, p.CardsPerServer)
	ctx := mapping.NewContext(b, p.Sim.Scheme, p.Cards)
	times := p.OpTimes()
	boot := mapping.DefaultBootstrapOptions(p.Sim.Scheme, p.Cards, times)
	if err := net.Emit(ctx, boot, times); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// Run builds and simulates a benchmark on this prototype.
func (p Prototype) Run(net model.Network) (*sim.Result, error) {
	prog, err := p.Build(net)
	if err != nil {
		return nil, err
	}
	return sim.Run(prog, p.Sim)
}
