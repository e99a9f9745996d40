package fhir

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
)

// lifetimeProgram numbers hand-made values into a legal program over 16
// slots at input level 3: the lifetime cases need shapes — a ModSwitch beside
// an in-place Add, dead readers of the output — that the passes do not emit
// as such.
func lifetimeProgram(out *Value, vals ...*Value) *Program {
	for i, v := range vals {
		v.ID = i
	}
	return &Program{Slots: 16, Values: vals, Output: out, Legal: true, InputLevel: 3}
}

// val is a legal value over args at the given level and degree.
func val(op Op, level, degree int, args ...*Value) *Value {
	return &Value{Op: op, Args: args, Level: level, Degree: degree}
}

func withK(v *Value, k int) *Value { v.K = k; return v }

func withConst(v *Value, c float64) *Value { v.Const = c; return v }

// lifetimeEnv is a level-3 context holding the rotation key for 1 only, and
// two encrypted inputs x and y.
func lifetimeEnv(t *testing.T) (*testEnv, EvalContext, map[string]*ckks.Ciphertext) {
	t.Helper()
	te := newTestEnv(t, 5, 3, []int{1}, false)
	rng := rand.New(rand.NewSource(21))
	cts := te.encryptAll(t, map[string][]complex128{"x": randVec(rng, 16), "y": randVec(rng, 16)}, 3)
	return te, EvalContext{Eval: te.eval, Enc: te.enc}, cts
}

// TestEvaluateLifetimeHazards: Evaluate hands a value's rows back to the
// pool at its last use, views a level drop and adds in place into a dying
// operand. For each hazardous shape the output must equal the ciphertext the
// evaluator's own ops give, word for word, on the first run and on a second
// that reuses the first's rows; the first output must survive the second
// run; and neither the run nor a write into the output the caller gets may
// touch an input.
func TestEvaluateLifetimeHazards(t *testing.T) {
	x := func() *Value { return &Value{Op: OpInput, Name: "x", Level: 3, Degree: 1} }
	y := func() *Value { return &Value{Op: OpInput, Name: "y", Level: 3, Degree: 1} }
	for _, tc := range []struct {
		name string
		prog func() *Program
		want func(ev *ckks.Evaluator, x, y *ckks.Ciphertext) *ckks.Ciphertext
	}{
		{"mul of a value by itself", func() *Program {
			x := x()
			a := val(OpNeg, 3, 1, x)
			m := val(OpMul, 3, 2, a, a)
			r := val(OpRelin, 3, 1, m)
			s := val(OpRescale, 2, 1, r)
			return lifetimeProgram(s, x, a, m, r, s)
		}, func(ev *ckks.Evaluator, x, _ *ckks.Ciphertext) *ckks.Ciphertext {
			return ev.Rescale(ev.MulRelin(ev.Neg(x), ev.Neg(x)))
		}},
		{"in-place add, then a modswitch of its operand", func() *Program {
			x, y := x(), y()
			a := val(OpAdd, 3, 1, x, y)
			b := val(OpAdd, 3, 1, a, y) // a lives on: no write into it
			c := withK(val(OpModSwitch, 2, 1, a), 1)
			d := withK(val(OpModSwitch, 2, 1, b), 1)
			out := val(OpAdd, 2, 1, c, d) // c owns a's rows now: written in place
			return lifetimeProgram(out, x, y, a, b, c, d, out)
		}, addThenDrop},
		{"modswitch, then an add of its operand", func() *Program {
			x, y := x(), y()
			a := val(OpAdd, 3, 1, x, y)
			c := withK(val(OpModSwitch, 2, 1, a), 1) // a lives on: c pins it
			b := val(OpAdd, 3, 1, a, y)              // a is pinned: no write into it
			d := withK(val(OpModSwitch, 2, 1, b), 1)
			out := val(OpAdd, 2, 1, c, d) // c is a view it does not own: no write into it
			return lifetimeProgram(out, x, y, a, c, b, d, out)
		}, addThenDrop},
		{"modswitch chain over an input", func() *Program {
			x := x()
			m1 := withK(val(OpModSwitch, 2, 1, x), 1)
			m2 := withK(val(OpModSwitch, 1, 1, m1), 1)
			out := withConst(val(OpAddConst, 1, 1, m2), 0.25)
			return lifetimeProgram(out, x, m1, m2, out)
		}, func(ev *ckks.Evaluator, x, _ *ckks.Ciphertext) *ckks.Ciphertext {
			return ev.AddConst(x.ViewAtLevel(1), 0.25)
		}},
		{"output is a view of an input", func() *Program {
			x := x()
			m := withK(val(OpModSwitch, 1, 1, x), 2)
			return lifetimeProgram(m, x, m)
		}, func(_ *ckks.Evaluator, x, _ *ckks.Ciphertext) *ckks.Ciphertext {
			return x.ViewAtLevel(1).CopyNew()
		}},
		{"output another value also consumes", func() *Program {
			x := x()
			a := withConst(val(OpAddConst, 3, 1, x), 0.5)
			b := withConst(val(OpAddConst, 3, 1, a), 0.25) // the output lives on: no write into it
			c := val(OpAdd, 3, 1, a, x)
			d := withK(val(OpModSwitch, 2, 1, a), 1)
			return lifetimeProgram(a, x, a, b, c, d)
		}, func(ev *ckks.Evaluator, x, _ *ckks.Ciphertext) *ckks.Ciphertext {
			return ev.AddConst(x, 0.5)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ctx, cts := lifetimeEnv(t)
			ins := map[string]string{"x": ctDigest(cts["x"]), "y": ctDigest(cts["y"])}
			want := tc.want(ctx.Eval, cts["x"], cts["y"])
			p := tc.prog()
			first, err := Evaluate(p, ctx, cts)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Equal(want) {
				t.Fatal("first run: output differs from the evaluator's")
			}
			pinned := ctDigest(first)
			second, err := Evaluate(p, ctx, cts)
			if err != nil {
				t.Fatal(err)
			}
			if !second.Equal(want) {
				t.Fatal("second run: output differs from the evaluator's")
			}
			if ctDigest(first) != pinned {
				t.Fatal("the second run wrote into the first run's output")
			}
			ctx.Eval.AddConstAcc(1, first)
			for name, d := range ins {
				if ctDigest(cts[name]) != d {
					t.Fatalf("input %s changed", name)
				}
			}
		})
	}
}

// addThenDrop is both add-and-modswitch cases' result: (x+y) and (x+y)+y,
// each dropped a level, summed.
func addThenDrop(ev *ckks.Evaluator, x, y *ckks.Ciphertext) *ckks.Ciphertext {
	a := ev.Add(x, y)
	return ev.Add(a.ViewAtLevel(2), ev.Add(a, y).ViewAtLevel(2))
}

// TestEvaluateReleasesAtLastUse: each value's rows go back to the pool at
// its last use and the results that follow reuse them, so once the ring's
// pools are warm an Evaluate of the he-mul Horner program allocates at most a
// quarter of what it did when every value took fresh heap rows.
func TestEvaluateReleasesAtLastUse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	const heapRows = 40_758_539 // bytes per Evaluate with fresh heap rows for every value
	p, err := Compile(heMulHorner(t), Options{Levels: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cts := pinnedEnv(t, p, 12, 16, false)
	if got := allocPerEvaluate(t, p, ctx, cts); got > heapRows/4 {
		t.Fatalf("Evaluate allocates %d B, want at most a quarter of %d", got, heapRows)
	}
}

// TestEvaluateReleasesHoistGroups: a tier-A group's rotations own the rows
// RotateHoisted gave them and hand them back at their last reader, so once
// the pools are warm an Evaluate of the CCMM program allocates less than its
// group rotations' results alone would take on the heap.
func TestEvaluateReleasesHoistGroups(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	const logN, levels = 10, 6
	b := NewBuilder(16)
	b.Output(b.CCMM(b.Input("x"), b.Input("z")))
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(src, Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	grouped := 0
	for _, v := range p.Values {
		if v.Op == OpRotate && v.Hoist != 0 {
			grouped++
		}
	}
	if grouped == 0 {
		t.Fatal("the CCMM program has no tier-A group")
	}
	ctx, cts := pinnedEnv(t, p, logN, levels, false)
	heap := uint64(grouped) * 2 * uint64(p.InputLevel+1) * 8 << logN // bytes of the group results' rows
	if got := allocPerEvaluate(t, p, ctx, cts); got >= heap {
		t.Fatalf("Evaluate allocates %d B; the %d group rotations' results alone take %d B", got, grouped, heap)
	}
}

// TestEvaluateFailedRunThenRerun: a run that fails mid-program, with rows
// held by live values, an in-place result and a view, hands them back to the
// pool; a rerun on the same evaluator must still give the result a fresh
// one does.
func TestEvaluateFailedRunThenRerun(t *testing.T) {
	_, ctx, cts := lifetimeEnv(t)
	prefix := func(tail func(s *Value) []*Value) *Program {
		x, y := &Value{Op: OpInput, Name: "x", Level: 3, Degree: 1}, &Value{Op: OpInput, Name: "y", Level: 3, Degree: 1}
		a := val(OpNeg, 3, 1, x)
		m := val(OpMul, 3, 2, a, y)
		r := val(OpRelin, 3, 1, m)
		s := val(OpRescale, 2, 1, r)
		c := withConst(val(OpAddConst, 2, 1, s), 0.5)
		vals := append([]*Value{x, y, a, m, r, s, c}, tail(c)...)
		return lifetimeProgram(vals[len(vals)-1], vals...)
	}
	bad := prefix(func(c *Value) []*Value {
		v := withK(val(OpModSwitch, 1, 1, c), 1)
		return []*Value{v, withK(val(OpRotate, 1, 1, v), 3)} // no key for 3
	})
	good := prefix(func(c *Value) []*Value { return []*Value{withK(val(OpModSwitch, 1, 1, c), 1)} })

	// The same keys on a ring of its own, whose pool no failed run touched.
	fresh := newTestEnv(t, 5, 3, []int{1}, false)
	want, err := Evaluate(good, EvalContext{Eval: fresh.eval, Enc: fresh.enc}, cts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if out, err := Evaluate(bad, ctx, cts); err == nil || out != nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("run %d: Evaluate returned %v, %v; want the missing key's panic as an error", i, out, err)
		}
		got, err := Evaluate(good, ctx, cts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("rerun %d after a failed run differs from a fresh evaluator's", i)
		}
	}
}

// TestEvaluateConcurrentOnOneEvaluator: Evaluates racing on one Evaluator
// share its ring's row pool; each must still get the sequential result.
func TestEvaluateConcurrentOnOneEvaluator(t *testing.T) {
	const logN, levels = 6, 5
	src := func() *Program {
		b := NewBuilder(1 << (logN - 1))
		b.Output(b.Horner(b.Input("x"), []float64{0.5, 1, -0.25, 0.125, 0.0625, -0.03125}))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, err := Compile(src(), Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	te := newTestEnv(t, logN, levels, nil, false)
	cts := te.encryptAll(t, map[string][]complex128{"x": randVec(rand.New(rand.NewSource(4)), p.Slots)}, levels)
	ctx := EvalContext{Eval: te.eval, Enc: te.enc}
	want, err := Evaluate(p, ctx, cts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]string, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				out, err := Evaluate(p, ctx, cts)
				if err != nil {
					errs[g] = err.Error()
					return
				}
				if !out.Equal(want) {
					errs[g] = "output differs from the sequential run"
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// TestLowerClusterSharedValues: on 2 cards, card 1's term reads card 0's
// term — each card computes it, and on card 1 it must outlive its one local
// reader, as the add tree that also reads it never runs there — and card
// 1's partial is received and consumed on card 0. The cluster's output must
// be Evaluate's word for word, run after run on one evaluator, and the
// inputs unchanged.
func TestLowerClusterSharedValues(t *testing.T) {
	b := NewBuilder(16)
	x, y := b.Input("x"), b.Input("y")
	u := b.Mul(x, y)
	t0 := b.AddConst(u, 0.25)
	t1 := b.Sub(b.MulConst(t0, 0.5), u)
	b.Output(b.Add(t0, t1))
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(src, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	te, ctx, cts := lifetimeEnv(t)
	ins := map[string]string{"x": ctDigest(cts["x"]), "y": ctDigest(cts["y"])}
	want, err := Evaluate(p, ctx, cts)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := LowerCluster(p, te.enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		cl := cluster.New(te.params, te.eval, 2)
		for card := 0; card < 2; card++ {
			for name, ct := range cts {
				cl.Load(card, name, ct)
			}
		}
		if err := cl.Run(context.Background(), progs); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Get(0, "out")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("run %d: 2-card output differs from Evaluate", run)
		}
	}
	for name, d := range ins {
		if ctDigest(cts[name]) != d {
			t.Fatalf("input %s changed", name)
		}
	}
}
