package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"hydra/internal/isa"
	"hydra/internal/mapping"
	"hydra/internal/model"
	"hydra/internal/task"
)

// TestLoweringWireStable pins the ISA encoding of lowered programs: every
// Table II prototype on ResNet-18, and Hydra-M on all four networks. A change
// to task, mapping or model that is meant to leave the emitted instruction
// streams alone must leave these hashes alone. The single-card prototypes
// lower identically; only their simulated machines differ.
func TestLoweringWireStable(t *testing.T) {
	const oneCardR18 = "be3450ebfcdbc4c85093faddd3decb5f6959b2e9181e940542162dab56be8d9b"
	r18 := model.ResNet18()
	cells := []struct {
		proto Prototype
		net   model.Network
		hash  string // SHA-256 of isa.Marshal(proto.Build(net))
	}{
		{FABS(), r18, oneCardR18},
		{Poseidon(), r18, oneCardR18},
		{FABM(), r18, "0d95d7894ca6f6ca9552e8d8f188232ccdbc449898148755b64512f9c2b10059"},
		{HydraS(), r18, oneCardR18},
		{HydraM(), r18, "4d622243adbd98a126d4b1c0f40fa7c811d7182cda6d192912cea1a54fed6b6f"},
		{HydraL(), r18, "c0ff9af07635f491ca769c73dcab3d5e9cc7f46f2d716051716ab0052385f99c"},
		{HydraM(), model.ResNet50(), "b63e81bfbd9a60863e95a24b2a64c216100143eb09b5d7a06f31b2dcaf5f5588"},
		{HydraM(), model.BERTBase(), "881398665acef3e19db08f564698dab4d5bcb7392d3a94deefa7d99f369ddf54"},
		{HydraM(), model.OPT67B(), "4526822f4d427547e8d92d2b0f37921c673d26d90633684a177fc08a1499ecb9"},
	}
	for _, c := range cells {
		p, err := c.proto.Build(c.net)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.proto.Name, c.net.Name, err)
		}
		blob, err := isa.Marshal(p)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.proto.Name, c.net.Name, err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != c.hash {
			t.Errorf("%s/%s: wire hash %s, want %s", c.proto.Name, c.net.Name, got, c.hash)
		}
	}
}

// TestSharedLoweringIsUnshared lowers every Table II cell twice: as Build
// does, each repeated procedure's steps shared by pointer, and one procedure
// at a time, each a network of its own on one builder, so that no step is
// shared. The two programs must be equal: sharing says the same program.
func TestSharedLoweringIsUnshared(t *testing.T) {
	for _, proto := range MeasuredPrototypes() {
		for _, net := range model.Benchmarks() {
			if testing.Short() && proto.Name == "Hydra-L" && net.Name == "OPT-6.7B" {
				continue
			}
			shared, err := proto.Build(net)
			if err != nil {
				t.Fatalf("%s/%s: %v", proto.Name, net.Name, err)
			}
			b := task.NewBuilder(proto.Cards, proto.CardsPerServer)
			ctx := mapping.NewContext(b, proto.Sim.Scheme, proto.Cards)
			times := proto.OpTimes()
			boot := mapping.DefaultBootstrapOptions(proto.Sim.Scheme, proto.Cards, times)
			for _, proc := range net.Procedures {
				one := model.Network{Name: net.Name, Procedures: []model.Procedure{proc}}
				if err := one.Emit(ctx, boot, times); err != nil {
					t.Fatalf("%s/%s: %v", proto.Name, net.Name, err)
				}
			}
			if !reflect.DeepEqual(shared, b.Build()) {
				t.Errorf("%s/%s: the shared lowering differs from the procedure-by-procedure one", proto.Name, net.Name)
			}
		}
	}
}

// TestBuildAllocationShape bounds what lowering allocates by the program's
// distinct steps: per send, the receive indices it returns and at most one
// peer list; per step, its queue headers and one array per queue kind. A
// repeated procedure lowered again, a card's queue grown one task at a time,
// or a peer list per receive breaks the bound.
func TestBuildAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	proto, net := HydraL(), model.ResNet18()
	p, err := proto.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	sends, steps := 0, map[*task.Step]bool{}
	for _, st := range p.Steps {
		if steps[st] {
			continue
		}
		steps[st] = true
		for _, q := range st.Comm {
			for _, c := range q {
				if c.Kind == task.Send {
					sends++
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := proto.Build(net); err != nil {
			t.Fatal(err)
		}
	})
	limit := 3*sends + 16*len(steps)
	t.Logf("%s/%s: %.0f allocations for %d sends over %d distinct steps, bound %d", proto.Name, net.Name, allocs, sends, len(steps), limit)
	if allocs > float64(limit) {
		t.Fatal("Build allocates more than the bound")
	}
}
