package fhir

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
)

// runOnCluster lowers p onto cards and runs it on a fresh cluster with every
// input preloaded on every card, returning card 0's "out".
func runOnCluster(t *testing.T, te *testEnv, p *Program, cards int, cts map[string]*ckks.Ciphertext) *ckks.Ciphertext {
	t.Helper()
	progs, err := LowerCluster(p, te.enc, cards)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(te.params, te.eval, cards)
	for card := 0; card < cards; card++ {
		for name, ct := range cts {
			cl.Load(card, name, ct)
		}
	}
	if err := cl.Run(context.Background(), progs); err != nil {
		t.Fatalf("%d cards: %v", cards, err)
	}
	out, err := cl.Get(0, "out")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runClusterDifferential compiles src both ways and executes each on the
// functional cluster runtime: the output must be bit-identical to Evaluate's
// and decrypt to the exact interpretation within tol.
func runClusterDifferential(t *testing.T, src func() *Program, levels, cards int, tol float64) {
	t.Helper()
	opt, err := Compile(src(), Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := CompileNaive(src(), levels)
	if err != nil {
		t.Fatal(err)
	}
	rots, conj := unionRotations(opt, naive)
	logN := 5
	for (1 << (logN - 1)) < opt.Slots {
		logN++
	}
	te := newTestEnv(t, logN, levels, rots, conj)

	rng := rand.New(rand.NewSource(11))
	plainIn := map[string][]complex128{}
	for _, in := range opt.Inputs() {
		plainIn[in.Name] = randVec(rng, opt.Slots)
	}
	want, err := Interpret(src(), plainIn)
	if err != nil {
		t.Fatal(err)
	}

	for name, p := range map[string]*Program{"optimized": opt, "naive": naive} {
		cts := te.encryptAll(t, plainIn, levels)
		eval, err := Evaluate(p, EvalContext{Eval: te.eval, Enc: te.enc}, cts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := runOnCluster(t, te, p, cards, cts)
		if !out.Equal(eval) {
			t.Errorf("%s on %d cards is not bit-identical to Evaluate", name, cards)
		}
		if e := maxErr(te.decryptSlots(out), want); e > tol {
			t.Errorf("%s on cluster disagrees with the interpreter: max slot error %.3g > %.3g", name, e, tol)
		}
	}
}

func TestClusterBSGSDifferential(t *testing.T) {
	runClusterDifferential(t, func() *Program { return buildBSGS(t, 16, 4, 4) }, 3, 2, 1e-4)
}

func TestClusterLazyRelinDifferential(t *testing.T) {
	runClusterDifferential(t, func() *Program {
		b := NewBuilder(16)
		x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
		b.Output(b.Sum(b.Mul(x, y), b.Mul(y, z), b.Mul(b.Rotate(x, 1), z)))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}, 3, 1, 1e-4)
}

func TestClusterSingleCard(t *testing.T) {
	runClusterDifferential(t, func() *Program {
		b := NewBuilder(16)
		x := b.Input("x")
		b.Output(b.Sum(x, b.Rotate(x, 1), b.Rotate(x, 2)))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}, 2, 1, 1e-5)
}

// TestLowerClusterEqualsEvaluate: on 1 to 4 cards — idle cards, an odd
// reduction tree and shares of unequal size included — the cluster computes
// exactly what Evaluate does, residue for residue and scale for scale.
func TestLowerClusterEqualsEvaluate(t *testing.T) {
	body := func(f func(b *Builder, x, y, z *Value) *Value) *Program {
		b := NewBuilder(16)
		b.Output(f(b, b.Input("x"), b.Input("y"), b.Input("z")))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	w := []complex128{1, -2, 3, 0.5, 1, 2, -3, 4, 1, 2, 3, 4, 0.25, 2, 3, 4}
	for _, tc := range []struct {
		name   string
		src    *Program
		levels int
		wrap   bool // end the compiled output in a ModSwitch after its Rescale
	}{
		{"bsgs", buildBSGS(t, 16, 4, 4), 3, false},
		{"lazy-relin-sum", body(func(b *Builder, x, y, z *Value) *Value {
			return b.Sum(b.Mul(x, y), b.Mul(y, z), b.Mul(b.Rotate(x, 1), z))
		}), 3, false},
		{"single-term", body(func(b *Builder, x, y, z *Value) *Value { return b.Rotate(b.Neg(x), 1) }), 1, false},
		{"rescale-modswitch-wrapped", body(func(b *Builder, x, y, z *Value) *Value {
			return b.Sum(b.MulPlain(x, b.PlainVec("w", w)), b.MulConst(y, 0.5), b.MulPlain(b.Rotate(z, 1), b.PlainVec("w", w)))
		}), 3, true},
		{"horner", body(func(b *Builder, x, y, z *Value) *Value {
			return b.Horner(x, []float64{0.5, 1, -0.25, 0.125, 0.0625, -0.03125})
		}), 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(tc.src, Options{Levels: tc.levels})
			if err != nil {
				t.Fatal(err)
			}
			if tc.wrap {
				out := p.Output
				if out.Op != OpRescale {
					t.Fatalf("compiled output is %s, want a Rescale to wrap", out.Op)
				}
				ms := &Value{ID: len(p.Values), Op: OpModSwitch, Args: []*Value{out}, K: 1, Level: out.Level - 1, Degree: 1}
				p.Values, p.Output = append(p.Values, ms), ms
			}
			rots, conj := p.Rotations()
			te := newTestEnv(t, 5, tc.levels, rots, conj)
			rng := rand.New(rand.NewSource(3))
			plainIn := map[string][]complex128{}
			for _, in := range p.Inputs() {
				plainIn[in.Name] = randVec(rng, p.Slots)
			}
			cts := te.encryptAll(t, plainIn, tc.levels)
			want, err := Evaluate(p, EvalContext{Eval: te.eval, Enc: te.enc}, cts)
			if err != nil {
				t.Fatal(err)
			}
			for cards := 1; cards <= 4; cards++ {
				if got := runOnCluster(t, te, p, cards, cts); !got.Equal(want) {
					t.Errorf("%d cards: output not bit-identical to Evaluate (level %d scale %g, want level %d scale %g)",
						cards, got.Level(), got.Scale, want.Level(), want.Scale)
				}
			}
		})
	}
}

// TestLowerClusterCancelMidShare: a 2-card job whose every share cancels the
// job's context from inside its first plaintext encode. Each card must stop
// at the next value — the plaintext at the end of its share is never encoded
// — Run must return the context's error, and no goroutine may outlive it.
func TestLowerClusterCancelMidShare(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished atomic.Bool
	ones := func(slots int) []complex128 {
		v := make([]complex128, slots)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	b := NewBuilder(16)
	x := b.Input("x")
	var terms []*Value
	for card := 0; card < 2; card++ {
		y := b.MulPlain(x, b.Plain("", func(slots int) ([]complex128, error) {
			cancel()
			return ones(slots), nil
		}))
		for i := 0; i < 32; i++ {
			y = b.Add(y, b.Rotate(y, 1))
		}
		terms = append(terms, b.MulPlain(y, b.Plain("", func(slots int) ([]complex128, error) {
			finished.Store(true)
			return ones(slots), nil
		})))
	}
	b.Output(b.Add(terms[0], terms[1]))
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const levels = 3
	p, err := Compile(src, Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	rots, conj := p.Rotations()
	te := newTestEnv(t, 5, levels, rots, conj)
	progs, err := LowerCluster(p, te.enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(te.params, te.eval, 2)
	cts := te.encryptAll(t, map[string][]complex128{"x": ones(16)}, levels)
	for card := 0; card < 2; card++ {
		cl.Load(card, "x", cts["x"])
	}

	base := runtime.NumGoroutine()
	if err := cl.Run(ctx, progs); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if finished.Load() {
		t.Error("a share ran to its end after its context was cancelled")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked: %d before, %d after", base, n)
	}
}
