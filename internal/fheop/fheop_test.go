package fheop

import (
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		HAdd: "HAdd", PMult: "PMult", CMult: "CMult", Rescale: "Rescale",
		KeySwitch: "KeySwitch", Rotation: "Rotation", Conjugate: "Conjugate",
	}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%d: got %q want %q", op, op.String(), s)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Fatalf("unknown op formatting: %q", Op(99).String())
	}
	if len(Ops()) != int(numOps) {
		t.Fatalf("Ops() returned %d entries", len(Ops()))
	}
}

func TestBasicOpStrings(t *testing.T) {
	want := map[BasicOp]string{NTT: "NTT", MA: "MA", MM: "MM", Auto: "Auto"}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%d: got %q want %q", op, op.String(), s)
		}
	}
	if BasicOp(42).String() != "BasicOp(42)" {
		t.Fatalf("unknown basic op formatting: %q", BasicOp(42).String())
	}
	if len(BasicOps()) != 4 {
		t.Fatalf("BasicOps() returned %d entries", len(BasicOps()))
	}
}

func TestOfAndAccessors(t *testing.T) {
	c := Of(Rotation, 8, PMult, 2, HAdd, 7)
	if c.Get(Rotation) != 8 || c.Get(PMult) != 2 || c.Get(HAdd) != 7 {
		t.Fatalf("counts wrong: %v", c)
	}
	if c != Of(HAdd, 7, PMult, 2, Rotation, 8) {
		t.Fatalf("counts %v depend on the order of Of's pairs", c)
	}
	// Repeated keys accumulate.
	c2 := Of(HAdd, 1, HAdd, 2)
	if c2.Get(HAdd) != 3 {
		t.Fatalf("accumulation failed: %v", c2)
	}
}

func TestOfPanics(t *testing.T) {
	cases := []func(){
		func() { Of(Rotation) },
		func() { Of("Rotation", 1) },
		func() { Of(Rotation, "1") },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCountsAlgebraProperties(t *testing.T) {
	add := func(a, b Counts) bool {
		sum := a.Add(b)
		for i := range sum {
			if sum[i] != a[i]+b[i] {
				return false
			}
		}
		// Commutativity.
		return sum == b.Add(a)
	}
	if err := quick.Check(add, nil); err != nil {
		t.Fatal(err)
	}
	scale := func(a Counts, n uint8) bool {
		s := a.Scale(int(n))
		for i := range s {
			if s[i] != a[i]*int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(scale, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountsString(t *testing.T) {
	var zero Counts
	if zero.String() != "∅" {
		t.Fatalf("zero counts: %q", zero.String())
	}
	c := Of(Rotation, 2)
	if c.String() != "Rotation×2" {
		t.Fatalf("counts string: %q", c.String())
	}
}

func TestBasicCountsAlgebra(t *testing.T) {
	var a BasicCounts
	a[NTT] = 3
	a[MM] = 2
	c := a.Add(a)
	if c.Get(NTT) != 6 || c.Get(MM) != 4 {
		t.Fatalf("add wrong: %v", c)
	}
}
