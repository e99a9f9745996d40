package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
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

	// Steps repeated by pointer add their first occurrence's memo; the
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

	// 132 steps of 6 kinds: almost every step adds a memo.
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

// TestSharedStepsTimeAlike holds every occurrence of a step repeated by
// pointer to one StepStat, bit for bit, and a program to the result of its
// copy whose steps share nothing, trace on and off.
func TestSharedStepsTimeAlike(t *testing.T) {
	check := func(name string, p *task.Program, cfg sim.Config) {
		t.Helper()
		copied := unshare(p)
		for _, trace := range []bool{false, true} {
			cfg.CollectTrace = trace
			got, err := sim.Run(p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			first := map[*task.Step]int{}
			for i, st := range p.Steps {
				f, ok := first[st]
				if !ok {
					first[st] = i
				} else if a, b := got.Steps[f], got.Steps[i]; !sameStat(a, b) {
					t.Fatalf("%s trace=%v: step %d %+v, its first occurrence (step %d) %+v", name, trace, i, b, f, a)
				}
			}
			want, err := sim.Run(copied, cfg)
			if err != nil {
				t.Fatalf("%s, steps copied: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trace=%v: makespan %v energy %v, with its steps copied %v %v",
					name, trace, got.Makespan, got.EnergyByUnit, want.Makespan, want.EnergyByUnit)
			}
		}
	}
	configs := oracleConfigs()
	for seed := int64(1); seed <= 150; seed++ {
		p := sim.RandomValidProgram(seed, 4)
		for name, cfg := range configs {
			check(fmt.Sprintf("seed %d %s", seed, name), p, cfg)
		}
	}
	for _, proto := range []experiments.Prototype{experiments.HydraM(), experiments.FABM()} {
		for _, net := range []model.Network{model.ResNet18(), model.BERTBase()} {
			p, err := proto.Build(net)
			if err != nil {
				t.Fatal(err)
			}
			check(proto.Name+"/"+net.Name, p, proto.Sim)
		}
	}
}

// sameStat reports whether two step statistics are equal bit for bit.
func sameStat(a, b sim.StepStat) bool {
	bits := math.Float64bits
	return a.Name == b.Name && bits(a.Span) == bits(b.Span) &&
		bits(a.ComputeMax) == bits(b.ComputeMax) && bits(a.CommBytes) == bits(b.CommBytes)
}

// unshare returns a deep copy of p in which no two steps, queues or peer
// lists share storage.
func unshare(p *task.Program) *task.Program {
	q := &task.Program{Cards: p.Cards, CardsPerServer: p.CardsPerServer}
	for _, st := range p.Steps {
		c := &task.Step{Name: st.Name, Compute: make([][]task.Compute, len(st.Compute)), Comm: make([][]task.Comm, len(st.Comm))}
		for card := range st.Compute {
			c.Compute[card] = slices.Clone(st.Compute[card])
		}
		for card := range st.Comm {
			c.Comm[card] = slices.Clone(st.Comm[card])
			for j := range c.Comm[card] {
				c.Comm[card][j].Peers = slices.Clone(c.Comm[card][j].Peers)
			}
		}
		q.Steps = append(q.Steps, c)
	}
	return q
}

// TestShapeCacheHits counts the steps a run compiles and times: one per
// distinct *task.Step. Lowering says a repeated procedure's steps again by
// pointer, so a Table II network has few distinct steps.
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
		compiled, _, _, err := sim.Footprint(p, proto.Sim)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Steps) != c.steps || len(distinct) != c.distinct || compiled != c.distinct {
			t.Errorf("%s/%s: %d compiled for %d distinct of %d steps, want %d for %d of %d",
				proto.Name, c.net.Name, compiled, len(distinct), len(p.Steps), c.distinct, c.distinct, c.steps)
		}
	}
}

// TestRunAllocationShape bounds what Run allocates by its step memos, its
// one compile scratch and its result: an occurrence of a step already timed
// allocates nothing.
func TestRunAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	proto := experiments.HydraL()
	p, err := proto.Build(model.ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	compiled, memoBytes, scratchBytes, err := sim.Footprint(p, proto.Sim)
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
	limit := validate + memoBytes + scratchBytes + resultSlack
	t.Logf("%d steps compiled of %d: %d B allocated; %d B in Validate, %d B in memos, %d B of scratch", compiled, len(p.Steps), got, validate, memoBytes, scratchBytes)
	if got > limit {
		t.Fatalf("Run allocates %d B, more than its memos and scratch allow (%d B)", got, limit)
	}
}

// resultSlack covers what Run allocates besides Validate, its memos and its
// scratch: the result, the runner and its maps, about 20 KB on ResNet-18.
// Twenty-nine steps there add a memo already made; one that allocated a
// kilobyte would break the bound.
const resultSlack = 32 << 10

// allocated returns the bytes f allocates.
func allocated(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}
