package fhir

import (
	"reflect"
	"strings"
	"testing"

	"hydra/internal/ckks"
)

func countOp(p *Program, op Op) int {
	n := 0
	for _, v := range p.Values {
		if v.Op == op {
			n++
		}
	}
	return n
}

func onesPlain(b *Builder, key string) *Plain {
	return b.Plain(key, func(slots int) ([]complex128, error) {
		vals := make([]complex128, slots)
		for i := range vals {
			vals[i] = 1
		}
		return vals, nil
	})
}

// buildBSGS writes a BSGS linear transform the way a frontend would: for each
// giant step, an inner fold of plaintext-multiplied baby rotations, rotated by
// the giant step and accumulated. Rotations are re-emitted per (group, baby)
// pair — exactly the redundancy CSE and Hoist exist to remove.
func buildBSGS(t *testing.T, slots, bs, gs int) *Program {
	t.Helper()
	b := NewBuilder(slots)
	x := b.Input("x")
	var acc *Value
	for g := 0; g < gs; g++ {
		var inner *Value
		for j := 0; j < bs; j++ {
			term := b.MulPlain(b.Rotate(x, j), onesPlain(b, ""))
			if inner == nil {
				inner = term
			} else {
				inner = b.Add(inner, term)
			}
		}
		rotated := b.Rotate(inner, g*bs)
		if acc == nil {
			acc = rotated
		} else {
			acc = b.Add(acc, rotated)
		}
	}
	b.Output(acc)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLegalizeLazyVsEagerRescales(t *testing.T) {
	build := func() *Program {
		b := NewBuilder(8)
		x := b.Input("x")
		a := b.MulPlain(x, onesPlain(b, "a"))
		c := b.MulPlain(x, onesPlain(b, "c"))
		b.Output(b.Add(a, c))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lazy, err := Legalize(build(), LegalizeOptions{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Legalize(build(), LegalizeOptions{Levels: 3, Eager: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOp(lazy, OpRescale); got != 1 {
		t.Errorf("lazy placement: %d rescales, want 1 (defer through the add)\n%s", got, lazy)
	}
	if got := countOp(eager, OpRescale); got != 2 {
		t.Errorf("eager placement: %d rescales, want 2\n%s", got, eager)
	}
	if lazy.Output.Pend != 0 || lazy.Output.Degree != 1 {
		t.Errorf("output facts pend=%d degree=%d, want 0/1", lazy.Output.Pend, lazy.Output.Degree)
	}
	if lazy.Output.Level != 2 {
		t.Errorf("output level %d, want 2 (one rescale off a 3-level budget)", lazy.Output.Level)
	}
}

func TestLegalizeLevelAlignment(t *testing.T) {
	b := NewBuilder(8)
	x := b.Input("x")
	deep := b.Mul(b.MulPlain(x, onesPlain(b, "p")), x) // costs a level
	b.Output(b.Add(deep, x))                           // x must drop to deep's level
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Legalize(p, LegalizeOptions{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOp(lp, OpModSwitch); got == 0 {
		t.Errorf("no modswitch inserted for the level-skewed add\n%s", lp)
	}
	if err := lp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLegalizeDepthExhausted(t *testing.T) {
	b := NewBuilder(8)
	x := b.Input("x")
	y := x
	for i := 0; i < 3; i++ {
		y = b.Mul(y, y)
	}
	b.Output(y)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Legalize(p, LegalizeOptions{Levels: 2}); err == nil ||
		!strings.Contains(err.Error(), "modulus chain exhausted") {
		t.Fatalf("want modulus-chain-exhausted error, got %v", err)
	}
	if _, err := Legalize(p, LegalizeOptions{Levels: 4}); err != nil {
		t.Fatalf("4 levels should suffice for depth 3: %v", err)
	}
}

func TestCSEMergesRotationsAndPlains(t *testing.T) {
	b := NewBuilder(8)
	x := b.Input("x")
	r1 := b.emit(&Value{Op: OpRotate, Args: []*Value{x}, K: 1})
	r2 := b.emit(&Value{Op: OpRotate, Args: []*Value{x}, K: 1})
	m1 := b.MulPlain(r1, onesPlain(b, "w"))
	m2 := b.MulPlain(r2, onesPlain(b, "w")) // same key, distinct Plain object
	b.Output(b.Add(m1, m2))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cp := CSE(p)
	if got := countOp(cp, OpRotate); got != 1 {
		t.Errorf("%d rotates after CSE, want 1\n%s", got, cp)
	}
	if got := countOp(cp, OpMulPlain); got != 1 {
		t.Errorf("%d mulplains after CSE, want 1 (same plaintext key)\n%s", got, cp)
	}
	if cp.Output.Op != OpAdd {
		t.Errorf("output op %s, want add (x+x, not merged: adds differ by operand identity only)", cp.Output.Op)
	}
}

func TestCSEKeylessPlainsNeverMerge(t *testing.T) {
	b := NewBuilder(8)
	x := b.Input("x")
	m1 := b.MulPlain(x, onesPlain(b, ""))
	m2 := b.MulPlain(x, onesPlain(b, ""))
	b.Output(b.Add(m1, m2))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := countOp(CSE(p), OpMulPlain); got != 2 {
		t.Errorf("%d mulplains after CSE, want 2 (keyless plains have unique identity)", got)
	}
}

func TestLazyRelinFoldsSums(t *testing.T) {
	b := NewBuilder(8)
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	s := b.Sum(b.Mul(x, y), b.Mul(y, z), b.Mul(x, z))
	b.Output(s)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Legalize(p, LegalizeOptions{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOp(lp, OpRelin); got != 3 {
		t.Fatalf("legalized program has %d relins, want 3", got)
	}
	rp := LazyRelin(lp)
	if got := countOp(rp, OpRelin); got != 1 {
		t.Errorf("%d relins after LazyRelin, want 1 (one keyswitch for the whole sum)\n%s", got, rp)
	}
	if err := rp.Validate(); err != nil {
		t.Fatal(err)
	}
	if rp.Output.Degree != 1 || rp.Output.Pend != 0 {
		t.Errorf("output degree=%d pend=%d, want 1/0", rp.Output.Degree, rp.Output.Pend)
	}
}

func TestLazyRelinKeepsSharedRelins(t *testing.T) {
	b := NewBuilder(8)
	x, y := b.Input("x"), b.Input("y")
	m := b.Mul(x, y) // relin result used twice
	s := b.Add(m, b.Rotate(m, 1))
	b.Output(s)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Legalize(p, LegalizeOptions{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	rp := LazyRelin(lp)
	if got := countOp(rp, OpRelin); got != 1 {
		t.Errorf("%d relins, want the shared one kept as-is", got)
	}
	if got := countOp(rp, OpAdd); got != 1 {
		t.Errorf("%d adds, want 1", got)
	}
	for _, v := range rp.Values {
		if v.Op == OpAdd && v.Degree != 1 {
			t.Errorf("add rewritten to degree-2 despite the relin having two consumers")
		}
	}
}

func TestHoistRotSum(t *testing.T) {
	b := NewBuilder(8)
	x := b.Input("x")
	s := b.Sum(x, b.Rotate(x, 1), b.Rotate(x, 2), b.Rotate(x, 4))
	b.Output(s)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Legalize(p, LegalizeOptions{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	hp := Hoist(lp)
	if got := countOp(hp, OpRotSum); got != 1 {
		t.Fatalf("%d rotsums, want 1\n%s", got, hp)
	}
	if got := countOp(hp, OpRotate); got != 0 {
		t.Errorf("%d standalone rotates survive, want 0\n%s", got, hp)
	}
	var rs *Value
	for _, v := range hp.Values {
		if v.Op == OpRotSum {
			rs = v
		}
	}
	wantRots := []int{0, 1, 2, 4}
	if len(rs.Rots) != len(wantRots) {
		t.Fatalf("rotsum rots %v, want %v", rs.Rots, wantRots)
	}
	for i, r := range wantRots {
		if rs.Rots[i] != r {
			t.Fatalf("rotsum rots %v, want %v", rs.Rots, wantRots)
		}
	}
	c := Measure(hp)
	if c.Decomp != 1 || c.ModDown != 1 || c.KeySwitch != 3 {
		t.Errorf("cost %+v, want 1 decomp / 1 moddown / 3 keyswitches", c)
	}
}

func TestHoistBSGS(t *testing.T) {
	p := buildBSGS(t, 16, 4, 4)
	opt, err := Compile(p, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := CompileNaive(buildBSGS(t, 16, 4, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOp(opt, OpRotBasket); got != 1 {
		t.Errorf("%d baskets, want 1 (baby steps share one decomposition)\n%s", got, opt)
	}
	if got := countOp(opt, OpDiagMac); got != 4 {
		t.Errorf("%d diagmacs, want 4 (one per giant step)\n%s", got, opt)
	}
	co, cn := Measure(opt), Measure(naive)
	// Naive: 4 groups × 3 nonzero babies + 3 giants = 15 keyswitches.
	// Optimized: 3 basket rotations + 3 giants = 6.
	if cn.KeySwitch != 15 {
		t.Errorf("naive keyswitches %d, want 15", cn.KeySwitch)
	}
	if co.KeySwitch != 6 {
		t.Errorf("optimized keyswitches %d, want 6\n%s", co.KeySwitch, opt)
	}
	if reduction := 1 - float64(co.KeySwitch)/float64(cn.KeySwitch); reduction < 0.20 {
		t.Errorf("keyswitch reduction %.0f%%, want >= 20%%", reduction*100)
	}
	if co.ModDown >= cn.ModDown {
		t.Errorf("moddowns not reduced: %d vs naive %d", co.ModDown, cn.ModDown)
	}
	// At ℓ = 3 (α = 2) the basket closes, 36 transforms against 80: its 3
	// nonzero rotations pay a ModDown each, the 4 DiagMacs none, and the 3
	// giant steps one each.
	if countClosed(opt) != 1 || co.ModDown != 6 || !strings.Contains(opt.String(), "] closed") {
		t.Errorf("%d closed baskets and %d moddowns, want 1 and 6\n%s", countClosed(opt), co.ModDown, opt)
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func countClosed(p *Program) int {
	n := 0
	for _, v := range p.Values {
		if v.Closed {
			n++
		}
	}
	return n
}

// basketChoice is one RotBasket of a compiled program as closeBaskets saw
// it, with the transforms each form would run.
type basketChoice struct {
	level, rots, groups, diags int
	extended, closed           int
	isClosed                   bool
}

func basketChoices(p *Program) []basketChoice {
	var out []basketChoice
	for _, b := range p.Values {
		if b.Op != OpRotBasket {
			continue
		}
		c := basketChoice{level: b.Level, rots: nonzeroRots(b.Rots), isClosed: b.Closed}
		for _, v := range p.Values {
			if v.Op == OpDiagMac && v.Args[0] == b {
				c.groups++
				c.diags += len(v.Rots)
			}
		}
		c.extended, c.closed = basketTransforms(c.level, ckks.SpecialPrimes(p.InputLevel), c.rots, c.groups, c.diags)
		out = append(out, c)
	}
	return out
}

// TestCloseBasketsRule: the compiler picks each basket's basis by counting
// transforms — n·α special-row encodes plus one ModDown per DiagMac against
// one ModDown per nonzero rotation, a ModDown at level ℓ being 2α + 2(ℓ+1) —
// and a tie stays extended. he-rot's 16 × 16 split closes; a one-group fold
// of 16 diagonals does not; the bootstrap's two C2S baskets (z and its
// conjugate, each feeding 32 giant steps of the P/R and Q/S transforms) close
// at level 20, where α = 7.
func TestCloseBasketsRule(t *testing.T) {
	compile := func(src *Program, levels int) *Program {
		p, err := Compile(src, Options{Levels: levels})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	boot, bootLevels := bootstrapSmall(t)
	// A tie: ℓ = 1 (α = 1, a ModDown is 6 transforms), two nonzero
	// rotations against six diagonals in one DiagMac, 12 = 12.
	x := &Value{ID: 0, Op: OpInput, Name: "x", Level: 1, Degree: 1}
	basket := &Value{ID: 1, Op: OpRotBasket, Args: []*Value{x}, Rots: []int{0, 1, 2}, Level: 1, Degree: 1}
	mac := &Value{ID: 2, Op: OpDiagMac, Args: []*Value{basket}, Rots: []int{0, 1, 2, 0, 1, 2}, Level: 1, Pend: 1, Degree: 1}
	for range mac.Rots {
		mac.Plains = append(mac.Plains, &Plain{Key: "w"})
	}
	tie := &Program{Slots: 8, Values: []*Value{x, basket, mac}, Output: mac, Legal: true, InputLevel: 1}
	closeBaskets(tie)

	heRot := basketChoice{level: 4, rots: 15, groups: 16, diags: 256, extended: 736, closed: 210, isClosed: true}
	bootC2S := basketChoice{level: 20, rots: 15, groups: 32, diags: 512, extended: 5376, closed: 840, isClosed: true}
	for _, tc := range []struct {
		name string
		p    *Program
		want []basketChoice
	}{
		{"he-rot 16x16 at L=4", compile(buildBSGS(t, 256, 16, 16), 4), []basketChoice{heRot}},
		{"one group of 16 at L=4", diagMacProgram(t, 32, 16, 4, 0), []basketChoice{{4, 15, 1, 16, 46, 210, false}}},
		{"bootstrap-small", compile(boot, bootLevels), []basketChoice{bootC2S, bootC2S}},
		{"tie", tie, []basketChoice{{1, 2, 1, 6, 12, 12, false}}},
	} {
		if got := basketChoices(tc.p); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: baskets %+v, want %+v", tc.name, got, tc.want)
		}
	}
	mac.Closed = true
	if err := tie.Validate(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("a closed DiagMac validated: %v", err)
	}
}

func TestHoistSkipsMultiUseLeaves(t *testing.T) {
	b := NewBuilder(8)
	x := b.Input("x")
	r := b.Rotate(x, 1)
	s := b.Sum(x, r, b.Rotate(x, 2))
	b.Output(b.Add(s, b.MulPlain(r, onesPlain(b, "w")))) // r used twice
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Legalize(p, LegalizeOptions{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	hp := Hoist(lp)
	if err := hp.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, hp)
	}
	// r has two consumers so it cannot fold into a RotSum; only {x, rot 2}
	// remain, one rotation short of a group.
	if got := countOp(hp, OpRotSum); got != 0 {
		t.Errorf("%d rotsums, want 0 (shared rotation must survive)\n%s", got, hp)
	}
	for _, v := range hp.Values {
		if v.Op == OpRotate && v.K == 1 {
			return
		}
	}
	t.Errorf("shared rotate-by-1 vanished\n%s", hp)
}

func TestHoistTierAAnnotation(t *testing.T) {
	// Two rotations of one source that cannot fold (each feeds a Mul, not an
	// add tree) still share a decomposition via the Hoist group annotation.
	b := NewBuilder(8)
	x, y := b.Input("x"), b.Input("y")
	a := b.Mul(b.Rotate(x, 1), y)
	c := b.Mul(b.Rotate(x, 2), y)
	b.Output(b.Mul(a, c))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compile(p, Options{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int]int{}
	for _, v := range opt.Values {
		if v.Op == OpRotate && v.Hoist != 0 {
			groups[v.Hoist]++
		}
	}
	if len(groups) != 1 {
		t.Fatalf("hoist groups %v, want one group of 2", groups)
	}
	for _, n := range groups {
		if n != 2 {
			t.Errorf("group size %d, want 2", n)
		}
	}
	c2 := Measure(opt)
	if c2.Decomp >= Measure(opt).KeySwitch+1 {
		t.Errorf("tier-A grouping saved no decompositions: %+v", c2)
	}
}

func TestPipelineInvariants(t *testing.T) {
	p := buildBSGS(t, 16, 2, 2)
	opt, err := Compile(p, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Legal {
		t.Error("compiled program lost Legal")
	}
	rots, conj := opt.Rotations()
	if conj {
		t.Error("no conjugations in this program")
	}
	if len(rots) == 0 {
		t.Error("no rotations reported")
	}
	for _, r := range rots {
		if r == 0 {
			t.Error("rotation 0 reported")
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(8)
	if _, err := b.Build(); err == nil {
		t.Error("Build without output should fail")
	}
	b2 := NewBuilder(8)
	x := b2.Input("x")
	b2.MulPlain(x, nil)
	b2.Output(x)
	if _, err := b2.Build(); err == nil {
		t.Error("nil plaintext should fail at Build")
	}
}
