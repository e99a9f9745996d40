package fhir

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hydra/internal/ckks"
	"hydra/internal/hefloat"
)

// buildFrontend finishes a program of one input "x" whose output body writes.
func buildFrontend(t *testing.T, slots int, body func(b *Builder, x *Value) *Value) *Program {
	t.Helper()
	b := NewBuilder(slots)
	b.Output(body(b, b.Input("x")))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLinTransMatchesDenseProduct checks the BSGS regrouping against the
// dense matrix–vector product it stands for: naive (bs 0), a baby-step count
// that divides the dimension and one that does not, on a dense matrix and on
// one with a handful of non-zero diagonals (whole giant-step groups empty).
func TestLinTransMatchesDenseProduct(t *testing.T) {
	const dim = 16
	rng := rand.New(rand.NewSource(3))
	dense := make([][]complex128, dim)
	sparse := make([][]complex128, dim)
	for i := range dense {
		dense[i] = randVec(rng, dim)
		sparse[i] = make([]complex128, dim)
		for _, d := range []int{0, 3, 7, 12} {
			sparse[i][(i+d)%dim] = dense[i][(i+d)%dim]
		}
	}
	x := randVec(rng, dim)
	for name, m := range map[string][][]complex128{"dense": dense, "sparse": sparse} {
		want := make([]complex128, dim)
		for i := range m {
			for j := range m[i] {
				want[i] += m[i][j] * x[j]
			}
		}
		lt, err := hefloat.NewLinearTransform(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{0, 4, 5} {
			p := buildFrontend(t, dim, func(b *Builder, v *Value) *Value { return b.LinTrans(v, lt, bs, "m") })
			got, err := Interpret(p, map[string][]complex128{"x": x})
			if err != nil {
				t.Fatal(err)
			}
			if e := maxErr(got, want); e > 1e-12 {
				t.Errorf("%s bs=%d: max slot error %.3g against M·x", name, bs, e)
			}
		}
	}
}

// TestLinTransFollowsGroups: the BSGS grouping has one spelling,
// LinearTransform.Groups, and everything derived from it agrees — the groups
// themselves (every diagonal once, under giant step d - d mod bs, ascending),
// the rotation keys RotationsBSGS asks for, and the products LinTrans writes
// (one per diagonal in group order, the baby rotation of x times the
// pre-shifted diagonal, and the program needing exactly RotationsBSGS).
func TestLinTransFollowsGroups(t *testing.T) {
	const dim = 16
	rng := rand.New(rand.NewSource(4))
	withDiags := func(ds ...int) *hefloat.LinearTransform {
		lt := &hefloat.LinearTransform{Dim: dim, Diags: map[int][]complex128{}}
		for _, d := range ds {
			lt.Diags[d] = randVec(rng, dim)
		}
		return lt
	}
	dense := make([]int, dim)
	for d := range dense {
		dense[d] = d
	}
	permutation, err := hefloat.NewLinearTransform(hefloat.CCMMSigma(4))
	if err != nil {
		t.Fatal(err)
	}
	for name, lt := range map[string]*hefloat.LinearTransform{
		"band":            withDiags(0, 1, dim-1),
		"dense":           withDiags(dense...),
		"permutation":     permutation,
		"single diagonal": withDiags(5),
	} {
		for _, bs := range []int{1, 4, dim} {
			// The rule, spelled independently: diagonals ascending, giant
			// step d - d mod bs.
			ds := make([]int, 0, len(lt.Diags))
			for d := range lt.Diags {
				ds = append(ds, d)
			}
			sort.Ints(ds)
			rotSet := map[int]bool{}
			for _, d := range ds {
				rotSet[d%bs], rotSet[d-d%bs] = true, true
			}
			delete(rotSet, 0)
			wantRots := make([]int, 0, len(rotSet))
			for r := range rotSet {
				wantRots = append(wantRots, r)
			}
			sort.Ints(wantRots)

			var walked []int
			lastGiant := -1
			for _, grp := range lt.Groups(bs) {
				if grp.Giant <= lastGiant || grp.Giant%bs != 0 || len(grp.Baby) == 0 {
					t.Errorf("%s bs=%d: group %+v after giant step %d", name, bs, grp, lastGiant)
				}
				lastGiant = grp.Giant
				for _, j := range grp.Baby {
					if j < 0 || j >= bs {
						t.Errorf("%s bs=%d: baby step %d outside [0, %d)", name, bs, j, bs)
					}
					walked = append(walked, grp.Giant+j)
				}
			}
			if !reflect.DeepEqual(walked, ds) {
				t.Errorf("%s bs=%d: groups walk diagonals %v, want %v", name, bs, walked, ds)
			}
			if got := lt.RotationsBSGS(bs); !reflect.DeepEqual(got, wantRots) {
				t.Errorf("%s bs=%d: RotationsBSGS %v, want %v", name, bs, got, wantRots)
			}

			p := buildFrontend(t, dim, func(b *Builder, x *Value) *Value { return b.LinTrans(x, lt, bs, "m") })
			if got, conj := p.Rotations(); conj || !reflect.DeepEqual(got, wantRots) {
				t.Errorf("%s bs=%d: program rotations %v (conjugate %v), want %v", name, bs, got, conj, wantRots)
			}
			var emitted []int
			for _, v := range p.Values {
				if v.Op != OpMulPlain {
					continue
				}
				d := ds[len(emitted)%len(ds)]
				g := d - d%bs
				emitted = append(emitted, d)
				if want := fmt.Sprintf("m:g%d:d%d", g, d); v.Plain.Key != want {
					t.Errorf("%s bs=%d: product %d multiplies %q, want %q", name, bs, len(emitted), v.Plain.Key, want)
				}
				if x := v.Args[0]; d == g && x.Op != OpInput || d != g && (x.Op != OpRotate || x.K != d-g) {
					t.Errorf("%s bs=%d: diagonal %d multiplies %v, want x rotated by %d", name, bs, d, x, d-g)
				}
				vals, err := v.Plain.Values(dim)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(vals, lt.ShiftedDiag(d, g)) {
					t.Errorf("%s bs=%d: diagonal %d is not pre-shifted by %d", name, bs, d, g)
				}
			}
			if !reflect.DeepEqual(emitted, ds) {
				t.Errorf("%s bs=%d: LinTrans multiplies diagonals %v, want %v", name, bs, emitted, ds)
			}
		}
	}
}

// TestCCMMThenPCMMChain: (X·Z)·W — a ciphertext product feeding a
// plaintext-weights product, as in an attention block — written with the CCMM
// frontend and LinTrans over hefloat.NewPCMMTransform. The interpreted program
// is the plaintext matrix product, and the compiled program evaluated on
// ciphertexts agrees with it.
func TestCCMMThenPCMMChain(t *testing.T) {
	const k, slots, levels = 4, 16, 6
	mat := func(seed float64) [][]float64 {
		m := make([][]float64, k)
		for r := range m {
			m[r] = make([]float64, k)
			for c := range m[r] {
				m[r][c] = math.Sin(seed + float64(r*k+c))
			}
		}
		return m
	}
	mul := func(a, b [][]float64) [][]float64 {
		out := make([][]float64, k)
		for r := range out {
			out[r] = make([]float64, k)
			for c := 0; c < k; c++ {
				for j := 0; j < k; j++ {
					out[r][c] += a[r][j] * b[j][c]
				}
			}
		}
		return out
	}
	pack := func(m [][]float64) []complex128 { // column c in slots [c·k, (c+1)·k)
		v := make([]complex128, slots)
		for c := 0; c < k; c++ {
			for r := 0; r < k; r++ {
				v[c*k+r] = complex(m[r][c], 0)
			}
		}
		return v
	}
	x, z, w := mat(0.2), mat(1.1), mat(2.2)
	pcmm, err := hefloat.NewPCMMTransform(w, slots)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(slots)
	b.Output(b.LinTrans(b.CCMM(b.Input("x"), b.Input("z")), pcmm, 0, "pcmm"))
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]complex128{"x": pack(x), "z": pack(z)}
	want := pack(mul(mul(x, z), w))
	interpreted, err := Interpret(src, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(interpreted, want); e > 1e-12 {
		t.Errorf("interpreted program differs from (X·Z)·W by %.3g", e)
	}
	opt, err := Compile(src, Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	rots, conj := opt.Rotations()
	te := newTestEnv(t, 5, levels, rots, conj)
	out, err := Evaluate(opt, EvalContext{Eval: te.eval, Enc: te.enc}, te.encryptAll(t, inputs, levels))
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(te.decryptSlots(out), want); e > 1e-8 {
		t.Errorf("encrypted (X·Z)·W: max slot error %.3g", e)
	}
}

// TestHornerMatchesFloat checks the Horner chain against the float power sum
// Σ c_i·x^i.
func TestHornerMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]complex128, 8)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, 0)
	}
	for _, deg := range []int{1, 2, 15} {
		coeffs := make([]float64, deg+1)
		for i := range coeffs {
			coeffs[i] = rng.Float64() - 0.5
		}
		p := buildFrontend(t, len(x), func(b *Builder, v *Value) *Value { return b.Horner(v, coeffs) })
		got, err := Interpret(p, map[string][]complex128{"x": x})
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			want := 0.0
			for k, c := range coeffs {
				want += c * math.Pow(real(x[i]), float64(k))
			}
			if e := math.Abs(real(got[i]) - want); e > 1e-12 {
				t.Errorf("degree %d slot %d: error %.3g", deg, i, e)
			}
		}
	}
}

// TestFrontendErrors: malformed frontend input surfaces at Build, not as a
// panic inside the builder.
func TestFrontendErrors(t *testing.T) {
	for name, body := range map[string]func(b *Builder, x *Value) *Value{
		"constant polynomial": func(b *Builder, x *Value) *Value { return b.Horner(x, []float64{1}) },
		"zero matrix": func(b *Builder, x *Value) *Value {
			return b.LinTrans(x, &hefloat.LinearTransform{Dim: 8}, 0, "zero")
		},
		"non-square ccmm": func(b *Builder, x *Value) *Value { return b.CCMM(x, x) },
	} {
		b := NewBuilder(8)
		b.Output(body(b, b.Input("x")))
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build accepted it", name)
		}
	}
}

// checkKeySwitchBar is the compiler's acceptance bar: the full pipeline
// removes at least 20% of the keyswitches eager legalization leaves.
func checkKeySwitchBar(t *testing.T, src *Program, levels int, full Cost) {
	t.Helper()
	naive, err := CompileNaive(src, levels)
	if err != nil {
		t.Fatal(err)
	}
	if n := Measure(naive).KeySwitch; 10*full.KeySwitch > 8*n {
		t.Errorf("%d keyswitches compiled against %d naive: below the 20%% reduction bar", full.KeySwitch, n)
	}
}

// heRotMatrix is a dense dim × dim matrix whose d-th diagonal is d+1
// everywhere: the he-rot benchmark's shape.
func heRotMatrix(dim int) *hefloat.LinearTransform {
	lt := &hefloat.LinearTransform{Dim: dim, Diags: map[int][]complex128{}}
	for d := 0; d < dim; d++ {
		diag := make([]complex128, dim)
		for i := range diag {
			diag[i] = complex(float64(d+1), 0)
		}
		lt.Diags[d] = diag
	}
	return lt
}

// TestLinTransHeRotShape pins what the compiler makes of the benchmark's
// he-rot shape, 256 diagonals at 16 baby steps: the frontend asks for the
// BSGS rotation set (babies 1..15, giants 16..240) and the compiled program
// pays one keyswitch per member, 30, against 255 compiled naively, and one
// decomposition for the baby basket plus one per giant step, 16.
func TestLinTransHeRotShape(t *testing.T) {
	const dim, bs = 256, 16
	lt := heRotMatrix(dim)
	src := buildFrontend(t, dim, func(b *Builder, x *Value) *Value { return b.LinTrans(x, lt, bs, "m") })
	rots, conj := src.Rotations()
	if want := lt.RotationsBSGS(bs); conj || !reflect.DeepEqual(rots, want) {
		t.Errorf("frontend rotations %v (conjugate %v), want %v", rots, conj, want)
	}
	opt, err := Compile(src, Options{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := Measure(opt)
	if c.KeySwitch != 30 || c.Decomp != 16 || c.PMult != dim {
		t.Errorf("compiled cost %+v, want 30 keyswitches, 16 decompositions and %d plaintext products", c, dim)
	}
	checkKeySwitchBar(t, src, 4, c)
}

// bootstrapSmall is the bootstrap program on conformance's bootstrap-small
// parameter set, uncompiled, with the level count it compiles at.
func bootstrapSmall(t *testing.T) (*Program, int) {
	t.Helper()
	const levels = 20
	logQ := []int{50}
	for i := 0; i < levels; i++ {
		logQ = append(logQ, 45)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 9, LogQ: logQ, LogP: 55, Scale: 1 << 45})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := hefloat.NewBootstrapDesc(params, hefloat.BootstrapperOptions{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	return buildFrontend(t, params.Slots(), func(b *Builder, z *Value) *Value { return b.Bootstrap(z, desc) }), levels
}

// TestBootstrapIRCost pins what the compiler makes of the paper's key
// procedure: the static cost and output level of the compiled bootstrap
// program on conformance's bootstrap-small parameter set. A pass change that
// moves any of these shows up here, against bootstrap, before it shows up as
// a timing.
func TestBootstrapIRCost(t *testing.T) {
	src, levels := bootstrapSmall(t)
	opt, err := Compile(src, Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	want := Cost{KeySwitch: 207, Decomp: 151, ModDown: 207, Rescale: 627, PMult: 1542}
	got := Measure(opt)
	got.Values = 0 // IR size, not a cost
	if got != want {
		t.Errorf("compiled bootstrap cost %+v, want %+v", got, want)
	}
	checkKeySwitchBar(t, src, levels, got)
	if got := opt.Output.Level; got != 1 {
		t.Errorf("compiled bootstrap ends at level %d of %d, want 1", got, levels)
	}
}
