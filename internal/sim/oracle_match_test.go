package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"hydra/internal/experiments"
	"hydra/internal/model"
	"hydra/internal/sim"
	"hydra/internal/task"
)

// identity places logical card i on physical card i, as Run does.
func identity(p *task.Program) sim.Placement {
	cards := make([]int, p.Cards)
	for i := range cards {
		cards[i] = i
	}
	return sim.Placement{Cards: cards, CardsPerServer: p.CardsPerServer}
}

// requireOracle fails unless RunOn returns exactly what the reference
// scheduler returns: every float bit, every energy key, the trace.
func requireOracle(t *testing.T, name string, p *task.Program, cfg sim.Config, pl sim.Placement) {
	t.Helper()
	got, err := sim.RunOn(p, cfg, pl)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := sim.RunOnOracle(p, cfg, pl)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the reference scheduler:\n got makespan %v energy %v steps %v\nwant makespan %v energy %v steps %v",
			name, got.Makespan, got.EnergyByUnit, got.Steps, want.Makespan, want.EnergyByUnit, want.Steps)
	}
}

func TestRunMatchesOracle(t *testing.T) {
	noOverlap := sim.HydraConfig()
	noOverlap.Overlap = false
	configs := map[string]sim.Config{"hydra": sim.HydraConfig(), "fab": sim.FABConfig(), "hydra-serial": noOverlap}

	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			p := sim.RandomValidProgram(seed)
			for name, cfg := range configs {
				for _, trace := range []bool{false, true} {
					cfg.CollectTrace = trace
					got, err := sim.Run(p, cfg)
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, name, err)
					}
					if want, err := sim.RunOnOracle(p, cfg, identity(p)); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s trace=%v: Run differs from the reference scheduler (oracle error %v)", seed, name, trace, err)
					}
				}
			}
		}
	})

	t.Run("batched-across-servers", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			p := sim.RandomValidProgram(seed)
			// Logical card 0 ends server 0; the others start server 1.
			pl := sim.Placement{CardsPerServer: 8, Batch: 3}
			for i := 0; i < p.Cards; i++ {
				pl.Cards = append(pl.Cards, 7+i)
			}
			for name, cfg := range configs {
				requireOracle(t, fmt.Sprintf("seed %d %s", seed, name), p, cfg, pl)
			}
		}
	})

	// Host relay (FAB-M), the serialized queue (Poseidon) and 64 cards
	// across eight servers (Hydra-L).
	t.Run("resnet18", func(t *testing.T) {
		for _, proto := range []experiments.Prototype{experiments.FABM(), experiments.Poseidon(), experiments.HydraL()} {
			p, err := proto.Build(model.ResNet18())
			if err != nil {
				t.Fatal(err)
			}
			requireOracle(t, proto.Name, p, proto.Sim, identity(p))
		}
	})
}
