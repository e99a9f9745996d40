package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
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

// matchOracle fails unless RunOn returns exactly what the reference
// scheduler returns: every float bit, every energy key, the trace; or the
// same error. It returns that error.
func matchOracle(t *testing.T, name string, p *task.Program, cfg sim.Config, pl sim.Placement) error {
	t.Helper()
	got, err := sim.RunOn(p, cfg, pl)
	want, oerr := sim.RunOnOracle(p, cfg, pl)
	if err != nil || oerr != nil {
		if fmt.Sprint(err) != fmt.Sprint(oerr) {
			t.Fatalf("%s: error %v, the reference scheduler's %v", name, err, oerr)
		}
		return err
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the reference scheduler:\n got makespan %v energy %v steps %v\nwant makespan %v energy %v steps %v",
			name, got.Makespan, got.EnergyByUnit, got.Steps, want.Makespan, want.EnergyByUnit, want.Steps)
	}
	return nil
}

// requireOracle is matchOracle on a program that must run.
func requireOracle(t *testing.T, name string, p *task.Program, cfg sim.Config, pl sim.Placement) {
	t.Helper()
	if err := matchOracle(t, name, p, cfg, pl); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// acrossServers places logical card 0 at the end of server 0 and the others
// on server 1.
func acrossServers(p *task.Program) sim.Placement {
	pl := sim.Placement{CardsPerServer: 8}
	for i := 0; i < p.Cards; i++ {
		pl.Cards = append(pl.Cards, 7+i)
	}
	return pl
}

// oracleConfigs are the machines the scheduler is held to the reference on:
// the DTU and the host relay.
func oracleConfigs() map[string]sim.Config {
	return map[string]sim.Config{"hydra": sim.HydraConfig(), "fab": sim.FABConfig()}
}

func TestRunMatchesOracle(t *testing.T) {
	configs := oracleConfigs()

	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			p := sim.RandomValidProgram(seed, 1)
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

	t.Run("across-servers", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			p := sim.RandomValidProgram(seed, 1)
			for name, cfg := range configs {
				requireOracle(t, fmt.Sprintf("seed %d %s", seed, name), p, cfg, acrossServers(p))
			}
		}
	})

	// Steps repeated by pointer replay their first occurrence's shape; the
	// reference scheduler runs every occurrence from scratch.
	t.Run("repeated", func(t *testing.T) {
		for seed := int64(1); seed <= 150; seed++ {
			p := sim.RandomValidProgram(seed, 4)
			for name, cfg := range configs {
				for _, trace := range []bool{false, true} {
					cfg.CollectTrace = trace
					for _, pl := range []sim.Placement{identity(p), acrossServers(p)} {
						requireOracle(t, fmt.Sprintf("seed %d %s trace=%v cards=%v", seed, name, trace, pl.Cards), p, cfg, pl)
					}
				}
			}
		}
	})

	// Host relay (FAB-M), Poseidon's card and 64 cards across eight servers
	// (Hydra-L).
	t.Run("resnet18", func(t *testing.T) {
		for _, proto := range []experiments.Prototype{experiments.FABM(), experiments.Poseidon(), experiments.HydraL()} {
			p, err := proto.Build(model.ResNet18())
			if err != nil {
				t.Fatal(err)
			}
			requireOracle(t, proto.Name, p, proto.Sim, identity(p))
		}
	})

	// 132 steps of 5 kinds: almost every step replays a shape.
	t.Run("bert-base", func(t *testing.T) {
		proto := experiments.HydraM()
		p, err := proto.Build(model.BERTBase())
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, proto.Name, p, proto.Sim, identity(p))
	})
}

// FuzzRunMatchesOracle holds RunOn to the reference scheduler on random
// programs with repeated steps, on every oracle machine.
func FuzzRunMatchesOracle(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	configs := oracleConfigs()
	f.Fuzz(func(t *testing.T, seed int64, repeat uint8) {
		p := sim.RandomValidProgram(seed, 1+int(repeat%4))
		for name, cfg := range configs {
			cfg.CollectTrace = true
			matchOracle(t, fmt.Sprintf("seed %d repeat %d %s", seed, repeat, name), p, cfg, identity(p))
			matchOracle(t, fmt.Sprintf("seed %d repeat %d %s across servers", seed, repeat, name), p, cfg, acrossServers(p))
		}
	})
}

// TestShapeCacheHits counts the shapes a run compiles: one per distinct
// *task.Step. Lowering says a repeated procedure's steps again by pointer, so
// a Table II network has few distinct steps.
func TestShapeCacheHits(t *testing.T) {
	for _, c := range []struct {
		proto           experiments.Prototype
		net             model.Network
		steps, distinct int
	}{
		{experiments.HydraL(), model.BERTBase(), 132, 6},
		{experiments.HydraL(), model.ResNet18(), 45, 16},
		{experiments.HydraS(), model.ResNet50(), 133, 20},
	} {
		proto := c.proto
		p, err := proto.Build(c.net)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[*task.Step]bool{}
		for _, st := range p.Steps {
			distinct[st] = true
		}
		shapes, _, _, err := sim.Footprint(p, proto.Sim)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Steps) != c.steps || len(distinct) != c.distinct || shapes != c.distinct {
			t.Errorf("%s/%s: %d shapes for %d distinct of %d steps, want %d for %d of %d",
				proto.Name, c.net.Name, shapes, len(distinct), len(p.Steps), c.distinct, c.distinct, c.steps)
		}
	}
}

// TestRunAllocationShape bounds what Run allocates by its shapes, its
// scratch and its result: a step that replays a shape allocates nothing.
func TestRunAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	proto := experiments.HydraL()
	p, err := proto.Build(model.ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	shapes, shapeBytes, scratchBytes, err := sim.Footprint(p, proto.Sim)
	if err != nil {
		t.Fatal(err)
	}
	validate := allocated(func() {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	got := allocated(func() {
		if _, err := sim.Run(p, proto.Sim); err != nil {
			t.Fatal(err)
		}
	})
	limit := validate + shapeBytes + scratchBytes + resultSlack
	t.Logf("%d shapes for %d steps: %d B allocated; %d B in Validate, %d B in shapes, %d B of scratch", shapes, len(p.Steps), got, validate, shapeBytes, scratchBytes)
	if got > limit {
		t.Fatalf("Run allocates %d B, more than its shapes and scratch allow (%d B)", got, limit)
	}
}

// resultSlack covers what Run allocates besides Validate, its shapes and its
// scratch: the result, the runner and its maps, about 20 KB on ResNet-18.
// Twenty-nine steps replay a shape there; a replay allocating a kilobyte
// breaks the bound.
const resultSlack = 32 << 10

// allocated returns the bytes f allocates.
func allocated(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}
