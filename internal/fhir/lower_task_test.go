package fhir

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/isa"
	"hydra/internal/sim"
	"hydra/internal/task"
)

func totalOps(tp *task.Program) fheop.Counts {
	var c fheop.Counts
	for _, st := range tp.Steps {
		for _, q := range st.Compute {
			for _, t := range q {
				c = c.Add(t.Ops)
			}
		}
	}
	return c
}

func TestLowerTaskSchedulesAndSims(t *testing.T) {
	opt, err := Compile(buildBSGS(t, 16, 4, 4), Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := BuildTaskProgram(opt, hw.PaperScheme(), 4, 2, "bsgs")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := isa.Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := isa.Unmarshal(bin)
	if err != nil {
		t.Fatal(err)
	}
	bin2, err := isa.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, bin2) {
		t.Fatal("isa round trip not byte-stable")
	}
	res, err := sim.Run(decoded, sim.HydraConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Makespan) || math.IsInf(res.Makespan, 0) || res.Makespan <= 0 {
		t.Fatalf("makespan %v not finite and positive", res.Makespan)
	}
}

func TestLowerTaskKeySwitchReduction(t *testing.T) {
	opt, err := Compile(buildBSGS(t, 16, 4, 4), Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := CompileNaive(buildBSGS(t, 16, 4, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	scheme := hw.PaperScheme()
	otp, err := BuildTaskProgram(opt, scheme, 1, 1, "opt")
	if err != nil {
		t.Fatal(err)
	}
	ntp, err := BuildTaskProgram(naive, scheme, 1, 1, "naive")
	if err != nil {
		t.Fatal(err)
	}
	ks := func(c fheop.Counts) int {
		return c[fheop.Rotation] + c[fheop.KeySwitch] + c[fheop.CMult] + c[fheop.Conjugate]
	}
	ko, kn := ks(totalOps(otp)), ks(totalOps(ntp))
	if reduction := 1 - float64(ko)/float64(kn); reduction < 0.20 {
		t.Errorf("task-level keyswitch reduction %.0f%% (%d vs %d), want >= 20%%", reduction*100, ko, kn)
	}
}

// TestBuildTaskProgramWireStable pins the ISA bytes BuildTaskProgram emits
// for three compiled programs — the he-rot BSGS (256 diagonals, 16 baby
// steps), a degree-15 Horner chain and the bootstrap-small pipeline — on 1, 2
// and 4 cards, two per server. A change to the partition, the op pricing or
// the emission order moves a hash.
func TestBuildTaskProgramWireStable(t *testing.T) {
	boot, bootLevels := bootstrapSmall(t)
	horner := make([]float64, 16)
	for i := range horner {
		horner[i] = 1 / float64(i+1)
	}
	for _, tc := range []struct {
		name   string
		src    *Program
		levels int
		want   [3]string // SHA-256 of the ISA blob on 1, 2 and 4 cards
	}{
		{"he-rot", buildFrontend(t, 256, func(b *Builder, x *Value) *Value { return b.LinTrans(x, heRotMatrix(256), 16, "m") }), 4, [3]string{
			"b4e616e4b5869de2d258f9abebfd4291cbeaa921ab0661a043fb2c58bbd5bee2",
			"ca701d57d6e9d63cbc1645ce26ec1db1f34c4c5e0e4ebbf3e701d753e96a9ecb",
			"2eff80e8276544f8d796bc0b7e1e2cd892aa4f1968c93b020513d06c3c9945fa",
		}},
		{"horner-15", buildFrontend(t, 16, func(b *Builder, x *Value) *Value { return b.Horner(x, horner) }), 16, [3]string{
			"a60420188e62ff9814e67d1c2e3c41b632529fc976f7497b572ccebfd7a882b3",
			"689a13b130ec9fcb8d849dffc2b592d016f8c02c13473cde723eb39e69d2e633",
			"bdacc14553e81dde81cda2cdaa1f656dc0c0e50d20c8c69907cd7f8c11f3bb21",
		}},
		{"bootstrap-small", boot, bootLevels, [3]string{
			"fdb720d82ccd1a038a682d8bd74efb738ac8c23a8f65196d1953f27b94221a25",
			"20937e6037c3607b6c07983a0462674003ccd6c9f8f5096073ad82baa951fb1f",
			"10fc7b214de3d0d828c3f7a355b80a91e34fffd5ad49b86725a59e74ebf82855",
		}},
	} {
		p, err := Compile(tc.src, Options{Levels: tc.levels})
		if err != nil {
			t.Fatal(err)
		}
		for i, cards := range []int{1, 2, 4} {
			tp, err := BuildTaskProgram(p, hw.PaperScheme(), cards, min(cards, 2), tc.name)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := isa.Marshal(tp)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(bin)); got != tc.want[i] {
				t.Errorf("%s on %d cards: ISA blob SHA-256 %s, want %s", tc.name, cards, got, tc.want[i])
			}
		}
	}
}

func TestLowerTaskMultiCardSplitsTerms(t *testing.T) {
	opt, err := Compile(buildBSGS(t, 16, 4, 4), Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := BuildTaskProgram(opt, hw.PaperScheme(), 4, 2, "bsgs")
	if err != nil {
		t.Fatal(err)
	}
	st := tp.Steps[0]
	busy := 0
	for card := 0; card < tp.Cards; card++ {
		if len(st.Compute[card]) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d cards busy; the term partition should engage several", busy)
	}
	sends := 0
	for card := 0; card < tp.Cards; card++ {
		for _, c := range st.Comm[card] {
			if c.Kind == task.Send {
				sends++
			}
		}
	}
	if sends == 0 {
		t.Error("no aggregation sends emitted for a multi-card lowering")
	}

	// A send carries a card's partial, the sum of its terms, taken before
	// card 0 applies the output wrappers: he-rot's terms sit at level 4, its
	// output Rescale at 3, so each send moves 5 limbs.
	heRot, err := Compile(buildFrontend(t, 256, func(b *Builder, x *Value) *Value { return b.LinTrans(x, heRotMatrix(256), 16, "m") }), Options{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	terms, wrappers := outputTerms(heRot)
	if len(wrappers) == 0 || terms[0].Level != 4 || heRot.Output.Level != 3 {
		t.Fatalf("he-rot: %d wrappers, terms at level %d, output at %d; want wrappers from level 4 to 3", len(wrappers), terms[0].Level, heRot.Output.Level)
	}
	for _, cards := range []int{2, 4} {
		tp, err := BuildTaskProgram(heRot, hw.PaperScheme(), cards, 2, "he-rot")
		if err != nil {
			t.Fatal(err)
		}
		want := float64(hw.PaperScheme().CiphertextBytes(5))
		for card, q := range tp.Steps[0].Comm {
			for _, c := range q {
				if c.Kind == task.Send && c.Bytes != want {
					t.Errorf("he-rot on %d cards: card %d sends %g bytes, want a 5-limb partial's %g", cards, card, c.Bytes, want)
				}
			}
		}
	}
}
