package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"hydra/internal/experiments"
	"hydra/internal/fheop"
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
// on server 1, for a batch of 3.
func acrossServers(p *task.Program) sim.Placement {
	pl := sim.Placement{CardsPerServer: 8, Batch: 3}
	for i := 0; i < p.Cards; i++ {
		pl.Cards = append(pl.Cards, 7+i)
	}
	return pl
}

// oracleConfigs are the machines the scheduler is held to the reference on:
// the DTU, the host relay, and a DTU-less card whose queues serialize.
func oracleConfigs() map[string]sim.Config {
	serial := sim.HydraConfig()
	serial.Overlap = false
	return map[string]sim.Config{"hydra": sim.HydraConfig(), "fab": sim.FABConfig(), "hydra-serial": serial}
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

	t.Run("batched-across-servers", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			p := sim.RandomValidProgram(seed, 1)
			for name, cfg := range configs {
				requireOracle(t, fmt.Sprintf("seed %d %s", seed, name), p, cfg, acrossServers(p))
			}
		}
	})

	// Steps repeated with fresh tags and seqs replay a cached shape; the
	// near-miss copies at the end of each program must not. The last copy
	// swaps two seqs and closes a cycle on hydra-serial in most programs, so
	// the program without it is held to the oracle too, and must run.
	t.Run("repeated", func(t *testing.T) {
		for seed := int64(1); seed <= 150; seed++ {
			p := sim.RandomValidProgram(seed, 4)
			head := &task.Program{Cards: p.Cards, CardsPerServer: p.CardsPerServer, Steps: p.Steps[:len(p.Steps)-1]}
			for name, cfg := range configs {
				for _, trace := range []bool{false, true} {
					cfg.CollectTrace = trace
					for _, pl := range []sim.Placement{identity(p), acrossServers(p)} {
						name := fmt.Sprintf("seed %d %s trace=%v batch=%d", seed, name, trace, pl.Batch)
						matchOracle(t, name, p, cfg, pl)
						requireOracle(t, name+" without the last step", head, cfg, pl)
					}
				}
			}
		}
	})

	// A wire program's seqs can wrap past MaxInt. Two steps whose seqs
	// differ from their first by the same 64-bit residues, but in the other
	// order, must not share a shape on a card without a DTU.
	t.Run("seq-wrap", func(t *testing.T) {
		step := func(seq0 int) *task.Step {
			return &task.Step{
				Name:    "s",
				Compute: [][]task.Compute{{task.Compute{Ops: fheop.Of(fheop.Rotation, 3), Limbs: 20, WaitRecv: -1}.WithSeq(seq0)}, nil},
				Comm: [][]task.Comm{
					{task.Comm{Kind: task.Send, Peers: []int{1}, Bytes: 1e6, WaitCompute: -1}.WithSeq(seq0 + 1)},
					{task.Comm{Kind: task.Recv, Peers: []int{0}, Bytes: 1e6, WaitCompute: -1}.WithSeq(seq0 + 2)},
				},
			}
		}
		p := &task.Program{Cards: 2, CardsPerServer: 2, Steps: []*task.Step{step(0), step(math.MaxInt)}}
		cfg := configs["hydra-serial"]
		cfg.CollectTrace = true
		requireOracle(t, "hydra-serial", p, cfg, identity(p))
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
// programs with repeated steps and near misses, on every oracle machine.
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
// step. A match that missed steps equal up to a tag and seq offset would
// still be exact, and slow. On Hydra-S's one card, 15 of ResNet-50's 19
// kinds of step share one queue-length vector.
func TestShapeCacheHits(t *testing.T) {
	for _, c := range []struct {
		proto         experiments.Prototype
		net           model.Network
		steps, shapes int
	}{
		{experiments.HydraL(), model.BERTBase(), 132, 5},
		{experiments.HydraL(), model.ResNet18(), 45, 16},
		{experiments.HydraS(), model.ResNet50(), 133, 19},
	} {
		proto := c.proto
		p, err := proto.Build(c.net)
		if err != nil {
			t.Fatal(err)
		}
		shapes, _, _, err := sim.Footprint(p, proto.Sim)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Steps) != c.steps || shapes != c.shapes {
			t.Errorf("%s/%s: %d shapes for %d steps, want %d for %d", proto.Name, c.net.Name, shapes, len(p.Steps), c.shapes, c.steps)
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
