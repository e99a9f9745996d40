package fhir

import (
	"context"
	"math/rand"
	"testing"

	"hydra/internal/ckks"
)

// runClusterDifferential compiles src both ways and executes each on the
// functional cluster runtime, comparing the decrypted result against the
// exact interpretation. Relinearization is eager on the cluster (its CMult
// is relinearized), so the comparison tolerance absorbs keyswitch noise.
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
		progs, err := LowerCluster(p, te.enc, cards)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl := newCluster(te, cards)
		cts := te.encryptAll(t, plainIn, levels)
		for card := 0; card < cards; card++ {
			for inName, ct := range cts {
				cl.Load(card, inName, ct)
			}
		}
		if err := cl.Run(context.Background(), progs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := cl.Get(0, "out")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := te.decryptSlots(out)
		if e := maxErr(got, want); e > tol {
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

// TestLowerClusterSharesEncodes: two cards whose closures both contain
// m = x ⊙ w receive the same encoded plaintext, not one encode each.
func TestLowerClusterSharesEncodes(t *testing.T) {
	b := NewBuilder(16)
	m := b.MulPlain(b.Input("x"), onesPlain(b, "w"))
	b.Output(b.Add(b.Rotate(m, 1), b.Rotate(m, 2)))
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(src, Options{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := LowerCluster(p, ckks.NewEncoder(ckks.TestParameters(5, 2)), 2)
	if err != nil {
		t.Fatal(err)
	}
	var plains []*ckks.Plaintext
	for _, prog := range progs {
		for _, ins := range prog {
			if ins.Plain != nil {
				plains = append(plains, ins.Plain)
			}
		}
	}
	if len(plains) != 2 || plains[0] != plains[1] {
		t.Fatalf("want one plaintext multiply per card sharing one encode, got %d plaintexts %p", len(plains), plains)
	}
}
