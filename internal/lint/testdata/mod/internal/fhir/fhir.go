// Package fhir exercises the checks that cover the IR compiler zone: errdrop
// (the pass pipeline reports illegal programs as errors, so dropping one
// ships the illegal program), plus the tree-wide poolleak and lazydomain
// checks in a compiler-shaped context (a lowering that borrows ring scratch
// and touches lazy residues).
package fhir

import (
	"errors"

	"hydra/internal/ring"
)

func compile() error { return errors.New("level underflow at v7") }

func lower() (int, error) { return 0, errors.New("unmappable op") }

// errdrop: a dropped compile error ships the illegal program.
func badCompileDrop() {
	compile() // want errdrop
}

// errdrop: blank at the error position of a lowering result.
func badLowerTuple() int {
	n, _ := lower() // want errdrop
	return n
}

// errdrop: handled errors stay silent.
func okCompileHandled() error {
	if err := compile(); err != nil {
		return err
	}
	return nil
}

// errdrop: a suppressed case.
func okCompileAnnotated() {
	//lint:allow errdrop testdata: cost probe only, legality re-checked by the real compile below
	compile()
}

// poolleak: a lowering that borrows scratch and forgets to return it.
func badScratchLeak(r *ring.Ring) {
	s := r.GetRows(4) // want poolleak
	_ = s[0]
}

// poolleak: the balanced acquire/release window stays silent.
func okScratchWindow(r *ring.Ring) {
	s := r.GetRows(4)
	_ = s[0]
	r.PutRows(s...)
}

// poolleak: a suppressed case.
func okScratchAnnotated(r *ring.Ring) [][]uint64 {
	s := r.GetRows(4)
	//lint:allow poolleak testdata: ownership handed to the caller, released by the paired free helper
	return s
}

// lazydomain: a lazy accumulator reaching a canonical-expecting helper.
func badLazySink(a, b, q, twoQ uint64) uint64 {
	acc := ring.AddModLazy(a, b, twoQ)
	return ring.AddMod(acc, b, q) // want lazydomain
}

// lazydomain: the sweep on the path canonicalizes.
func okLazySwept(a, b, q, twoQ uint64) uint64 {
	acc := ring.AddModLazy(a, b, twoQ)
	acc = ring.ReduceFinal(acc, q)
	return ring.AddMod(acc, b, q)
}

// lazydomain: a suppressed case.
func okLazyAnnotated(a, b, q, twoQ uint64) uint64 {
	acc := ring.AddModLazy(a, b, twoQ)
	//lint:allow lazydomain testdata: caller guarantees a+b < q so the lazy window is already canonical
	return ring.AddMod(acc, b, q)
}
