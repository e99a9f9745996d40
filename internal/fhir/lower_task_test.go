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
			"a5e04c707f07223eac422cd66b36a9a321b118ee0f8004a44569d555bfaef9eb",
			"3706e5009b9203ab0096998f72d1843b36a8c7e21b731b38473bc047d8fefb29",
			"0795e772bc408cbd39c5e79993c460ee3f386bf8b540ec566e1fb766df2f5446",
		}},
		{"horner-15", buildFrontend(t, 16, func(b *Builder, x *Value) *Value { return b.Horner(x, horner) }), 16, [3]string{
			"d522a83e9e13b947dd4341a5268dfd3751de841cce348ceeafc72bb1129bb153",
			"1cbc27d287c354efadd086f03f3eee59f4e10142a0317c15339846705debbc96",
			"10d959c2222792416f0f5be1f2cfba1a674b41783e4a8efdd6041879f9440e99",
		}},
		{"bootstrap-small", boot, bootLevels, [3]string{
			"9fe684615af2a2ee70307631e2f760caf6f9aa21483dc3bdce77ef15a6988408",
			"12481d6c9bffdba2d3a188c655150766040ab1e89e106cd637a9e6b16c790731",
			"588f53e24b8ab671ec03b0ca6fc934c43856a230edc23d64fff5c33b9bfe206e",
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
}
