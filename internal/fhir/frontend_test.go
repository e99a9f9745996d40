package fhir

import (
	"math"
	"math/rand"
	"reflect"
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

// TestLinTransHeRotShape pins what the compiler makes of the benchmark's
// he-rot shape, 256 diagonals at 16 baby steps: the frontend asks for the
// BSGS rotation set (babies 1..15, giants 16..240) and the compiled program
// pays one keyswitch per member, 30, against 255 compiled naively, and one
// decomposition for the baby basket plus one per giant step, 16.
func TestLinTransHeRotShape(t *testing.T) {
	const dim, bs = 256, 16
	lt := &hefloat.LinearTransform{Dim: dim, Diags: map[int][]complex128{}}
	for d := 0; d < dim; d++ {
		diag := make([]complex128, dim)
		for i := range diag {
			diag[i] = complex(float64(d+1), 0)
		}
		lt.Diags[d] = diag
	}
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

// TestBootstrapIRCost pins what the compiler makes of the paper's key
// procedure: the static cost and output level of the compiled bootstrap
// program on conformance's bootstrap-small parameter set. A pass change that
// moves any of these shows up here, against bootstrap, before it shows up as
// a timing.
func TestBootstrapIRCost(t *testing.T) {
	const levels = 20
	logQ := []int{50}
	for i := 0; i < levels; i++ {
		logQ = append(logQ, 45)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 9, LogQ: logQ, LogP: 55, Scale: 1 << 45})
	if err != nil {
		t.Fatal(err)
	}
	// Keyless: only the transforms are read.
	bt, err := hefloat.NewBootstrapper(params, ckks.NewEncoder(params), nil,
		hefloat.BootstrapperOptions{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	src := buildFrontend(t, params.Slots(), func(b *Builder, z *Value) *Value { return b.Bootstrap(z, bt) })
	opt, err := Compile(src, Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	want := Cost{KeySwitch: 207, Decomp: 151, ModDown: 241, Rescale: 627, PMult: 1542}
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
