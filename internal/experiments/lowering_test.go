package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hydra/internal/isa"
	"hydra/internal/model"
	"hydra/internal/task"
)

// TestLoweringWireStable pins the ISA encoding of lowered programs: every
// Table II prototype on ResNet-18, and Hydra-M on all four networks. A change
// to task, mapping or model that is meant to leave the emitted instruction
// streams alone must leave these hashes alone. The single-card prototypes
// lower identically; only their simulated machines differ.
func TestLoweringWireStable(t *testing.T) {
	const oneCardR18 = "fdaed2b951bd643945ffa7ccbce5fcad95bc6e154b986d4f0e1d280420b388e6"
	r18 := model.ResNet18()
	cells := []struct {
		proto Prototype
		net   model.Network
		hash  string // SHA-256 of isa.Marshal(proto.Build(net))
	}{
		{FABS(), r18, oneCardR18},
		{Poseidon(), r18, oneCardR18},
		{FABM(), r18, "95a418ca9503f6c9c3711d2f4f9d4c11f6bd64b27946ee130e59c0c95d303091"},
		{HydraS(), r18, oneCardR18},
		{HydraM(), r18, "b70c7ef4985156458189b1efa53cd43e053366e45fc4c549b72aef1cba281b2d"},
		{HydraL(), r18, "f9c6daccfacb6b096d8b536b12828ae8136b20af06bc8a8c6991fb7b4cc80070"},
		{HydraM(), model.ResNet50(), "af7ffc3ce1caceb01355fbbf7c561b45dfa54f8d688ea56887a83ff2bc623fe5"},
		{HydraM(), model.BERTBase(), "769100e070dfd5ff47f4849c5d04e1a0dae3622da078f03c9aa5f258796b2fa4"},
		{HydraM(), model.OPT67B(), "5efeab1fc8db3279d3a8655fe737629c5494cd9388f2d92da3174f5f4be8354f"},
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

// TestBuildAllocationShape bounds what lowering allocates: per send, the
// receive indices it returns and at most one peer list; per step, its queue
// headers and one array per queue kind. Growing a card's queue one task at a
// time, or a peer list per receive, breaks the bound by an order of magnitude.
func TestBuildAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	proto, net := HydraL(), model.ResNet18()
	p, err := proto.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	sends := 0
	for _, st := range p.Steps {
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
	limit := 3*sends + 16*len(p.Steps)
	t.Logf("%s/%s: %.0f allocations for %d sends over %d steps, bound %d", proto.Name, net.Name, allocs, sends, len(p.Steps), limit)
	if allocs > float64(limit) {
		t.Fatal("Build allocates more than the bound")
	}
}
