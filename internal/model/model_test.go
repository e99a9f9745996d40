package model

import (
	"testing"

	"hydra/internal/fheop"
	"hydra/internal/mapping"
	"hydra/internal/sim"
	"hydra/internal/task"
)

func TestBenchmarksValidate(t *testing.T) {
	for _, n := range Benchmarks() {
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
	}
}

func TestTable1Ranges(t *testing.T) {
	// Spot-check the parallelism ranges of Table I.
	r18 := ResNet18()
	if min, max, ok := r18.ParallelismRange(ConvBN); !ok || min != 384 || max != 1024 {
		t.Fatalf("ResNet-18 ConvBN range %d/%d", min, max)
	}
	if min, max, ok := r18.ParallelismRange(Pooling); !ok || min != 6 || max != 64 {
		t.Fatalf("ResNet-18 Pooling range %d/%d", min, max)
	}
	if min, max, ok := r18.ParallelismRange(FC); !ok || min != 1511 || max != 1511 {
		t.Fatalf("ResNet-18 FC range %d/%d", min, max)
	}
	if min, max, ok := r18.ParallelismRange(NonLinear); !ok || min != 4 && min > 16 || max != 128 {
		t.Fatalf("ResNet-18 NonLinear range %d/%d", min, max)
	}
	if min, max := r18.CiphertextRange(); min != 1 || max != 32 {
		t.Fatalf("ResNet-18 ciphertext range %d/%d", min, max)
	}

	r50 := ResNet50()
	if _, max, _ := r50.ParallelismRange(ConvBN); max != 16384 {
		t.Fatalf("ResNet-50 ConvBN max %d, want 16384 (Section II-A)", max)
	}
	if min, _, _ := r50.ParallelismRange(FC); min != 3047 {
		t.Fatalf("ResNet-50 FC %d", min)
	}

	bert := BERTBase()
	if _, max, _ := bert.ParallelismRange(CCMM); max != 384 {
		t.Fatalf("BERT CCMM max %d", max)
	}
	if min, max, _ := bert.ParallelismRange(Bootstrap); min != 12 || max != 12 {
		t.Fatalf("BERT boot range %d/%d", min, max)
	}

	opt := OPT67B()
	if _, max, _ := opt.ParallelismRange(PCMM); max != 614400 {
		t.Fatalf("OPT PCMM max %d, want 614400 (Table I)", max)
	}
	if _, max, _ := opt.ParallelismRange(CCMM); max != 1000 {
		t.Fatalf("OPT CCMM max %d", max)
	}
	if _, max, _ := opt.ParallelismRange(Bootstrap); max != 18 {
		t.Fatalf("OPT boot max %d", max)
	}
}

func TestKindStringsAndRecipes(t *testing.T) {
	for _, k := range []Kind{ConvBN, Pooling, FC, PCMM, CCMM, NonLinear, Bootstrap} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if ConvBN.Recipe().Get(fheop.Rotation) != 8 {
		t.Fatal("ConvBN recipe should have 8 rotations")
	}
	if CCMM.Recipe().Get(fheop.Rotation) != 7 {
		t.Fatal("CCMM recipe should have 7 rotations")
	}
	if Bootstrap.Recipe() != (fheop.Counts{}) {
		t.Fatal("Bootstrap has no static recipe")
	}
}

func TestValidateRejectsBadNetworks(t *testing.T) {
	bad := []Network{
		{Name: "empty"},
		{Name: "conv", Procedures: []Procedure{{Label: "ConvBN", Kind: ConvBN}}},
		{Name: "boot", Procedures: []Procedure{{Label: "Boot", Kind: Bootstrap}}},
		{Name: "nl", Procedures: []Procedure{{Label: "ReLU", Kind: NonLinear, Cts: 4}}},
	}
	for _, n := range bad {
		if err := n.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", n.Name)
		}
	}
}

func TestEmitAndSimulateResNet18(t *testing.T) {
	for _, cards := range []int{1, 8} {
		cfg := sim.HydraConfig()
		b := task.NewBuilder(cards, 8)
		ctx := mapping.NewContext(b, cfg.Scheme, cards)
		com := 0.0
		if cards > 1 {
			com = cfg.Network.IntraServer.Transfer(float64(cfg.Scheme.CiphertextBytes(25)))
		}
		times := mapping.OpTimesFor(cfg.Card, cfg.Scheme, 25, com)
		boot := mapping.DefaultBootstrapOptions(cfg.Scheme, cards, times)
		if err := ResNet18().Emit(ctx, boot, times); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(b.Build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan <= 0 {
			t.Fatal("empty simulation")
		}
		spans := res.StepSpanByName()
		for _, label := range []string{"ConvBN", "ReLU", "Boot", "FC", "Pool"} {
			if spans[label] <= 0 {
				t.Fatalf("cards=%d: no time attributed to %s: %v", cards, label, spans)
			}
		}
	}
}

func TestLabelsOrder(t *testing.T) {
	labels := ResNet18().Labels()
	if len(labels) != 5 || labels[0] != "ConvBN" {
		t.Fatalf("labels %v", labels)
	}
	bl := BERTBase().Labels()
	want := map[string]bool{"Attention": true, "Norm": true, "Boot": true, "FFN": true}
	for _, l := range bl {
		if !want[l] {
			t.Fatalf("unexpected BERT label %q", l)
		}
	}
}
