package fhir

import (
	"math/rand"
	"testing"
)

// TestInterpretFusedOpsInPlace: Interpret reads a DiagMac's and a RotSum's
// rotated terms in place, so a compiled BSGS agrees with its source and
// allocates one slot vector per value it computes (plus the map holding
// them), not one more per rotation.
func TestInterpretFusedOpsInPlace(t *testing.T) {
	const slots, bs, gs = 64, 8, 8
	rng := rand.New(rand.NewSource(17))
	b := NewBuilder(slots)
	x, y := b.Input("x"), b.Input("y")
	var acc *Value
	for g := 0; g < gs; g++ {
		var inner *Value
		for j := 0; j < bs; j++ {
			inner = b.accum(inner, b.MulPlain(b.Rotate(x, j), b.PlainVec("", randVec(rng, slots))))
		}
		acc = b.accum(acc, b.Rotate(inner, g*bs))
	}
	b.Output(b.Add(acc, b.Sum(y, b.Rotate(y, 1), b.Rotate(y, -3), b.Rotate(y, slots-1))))
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(src, Options{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if countOp(p, OpDiagMac) != gs || countOp(p, OpRotSum) != 1 {
		t.Fatalf("want %d DiagMacs and 1 RotSum\n%s", gs, p)
	}
	in := map[string][]complex128{"x": randVec(rng, slots), "y": randVec(rng, slots)}
	want, err := Interpret(src, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Interpret(p, in)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(got, want); e > 1e-12 {
		t.Errorf("compiled program interprets %.3g away from its source", e)
	}
	allocs := testing.AllocsPerRun(5, func() { _, _ = Interpret(p, in) })
	// Not every value allocates (inputs, Rescale), and the map grows a few times.
	if bound := float64(len(p.Values) + 4); allocs > bound {
		t.Errorf("Interpret of %d values and %d fused rotations allocates %.0f times, want ≤ %.0f", len(p.Values), gs*bs+3, allocs, bound)
	}
}
