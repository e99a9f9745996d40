// Package fhir is the FHE program compiler: an SSA-ish intermediate
// representation over ciphertext values with a typed builder API, a pass
// pipeline, and lowerings to the functional CKKS evaluator, the task/ISA
// scheduling model, and the functional cluster runtime.
//
// Hydra compiles networks offline into statically scheduled programs; this
// package is that compilation step as a real compiler. A Program is a
// topologically ordered DAG of Values. Each Value carries the (level, scale,
// degree) facts of the ciphertext it denotes — so the modulus-chain protocol
// is a property of the IR: Legalize computes the facts and reports a program
// that violates them, and FuzzIRPasses exercises that on random programs —
// and the pass pipeline turns a naively expressed program into the
// double-hoisted, lazily relinearized form the hand-tuned hefloat procedures
// use:
//
//	CSE         merges structurally identical rotations and plaintext muls
//	Legalize    inserts Rescale/ModSwitch to satisfy per-op level and scale
//	            constraints (lazily in the optimized pipeline, eagerly in
//	            the naive one) and computes the fact lattice
//	LazyRelin   defers relinearization through additions, folding sums of
//	            degree-2 tensor products into a single keyswitch
//	Hoist       merges rotations sharing a digit decomposition into one
//	            extended-basis fold (RotBasket/DiagMac/RotSum), deferring
//	            all but one ModDown per fold — or, for a basket whose
//	            DiagMacs would spend more transforms encoding diagonals over
//	            the special primes than it saves, closing each baby rotation
//	            once and folding over the Q rows alone
//	DCE         drops values unreachable from the output
//
// The scale lattice is tracked as an integer count of pending (unclosed)
// products: a value with Pend = 0 sits at the canonical scale Δ, Pend = 1 at
// ≈ Δ², and so on. Rescale decrements Pend. Two values may be added when
// their Pend matches — the runtime scales then agree within the evaluator's
// relative tolerance, because every prime of the chain is within 2⁻³² of Δ.
package fhir

import (
	"fmt"
	"sort"
)

// Op enumerates IR operations. The first group is what the Builder emits;
// Rescale/ModSwitch are inserted by Legalize; the fused extended-basis forms
// (RotBasket, DiagMac, RotSum) are introduced by the Hoist pass.
type Op int

// IR operations.
const (
	OpInput     Op = iota // named ciphertext input
	OpAdd                 // Args[0] + Args[1] (degrees must match)
	OpSub                 // Args[0] - Args[1]
	OpNeg                 // -Args[0]
	OpAddConst            // Args[0] + Const
	OpMulConst            // Args[0] · Const (const encoded at the default scale; raises Pend)
	OpMulPlain            // Args[0] ⊙ Plain (raises Pend)
	OpMul                 // Args[0] · Args[1]: degree-2 tensor product, no relinearization
	OpRelin               // degree-2 → degree-1 keyswitch
	OpRescale             // drop the top modulus, Pend - 1
	OpModSwitch           // drop K levels without rounding (level alignment)
	OpRotate              // rotate slots left by K
	OpConjugate           // conjugate every slot
	OpRotBasket           // hoisted: Args[0] rotated by every r in Rots, one shared decomposition, results left in the extended basis (Closed: each ModDowned once, Q rows)
	OpDiagMac             // Args[0] must be a RotBasket: ModDown(Σ_j basket[Rots[j]] ⊙ Plains[j]), one deferred ModDown for the whole fold (over a closed basket: a Q-row fold, no ModDown)
	OpRotSum              // Σ_{r ∈ Rots} rotate(Args[0], r) through one extended-basis accumulator and one ModDown
)

var opNames = [...]string{
	"input", "add", "sub", "neg", "addconst", "mulconst", "mulplain", "mul",
	"relin", "rescale", "modswitch", "rotate", "conjugate", "rotbasket",
	"diagmac", "rotsum",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Plain is a plaintext operand: a deterministic slot-vector generator plus a
// structural identity. Two Plains with the same non-empty Key are assumed to
// generate the same vector (CSE merges through them); a Plain with an empty
// Key is never merged.
type Plain struct {
	Key    string
	Values func(slots int) ([]complex128, error)

	uid int // builder-assigned fallback identity for keyless plaintexts
}

func (p *Plain) cseKey() string {
	if p.Key != "" {
		return p.Key
	}
	return fmt.Sprintf("#%d", p.uid)
}

// Value is one SSA value: an operation over earlier values, plus the
// ciphertext facts Legalize computes for it. Values are immutable once their
// program is built; passes construct rewritten programs rather than mutating
// in place.
type Value struct {
	ID   int
	Op   Op
	Args []*Value

	K      int      // rotation amount (OpRotate), levels dropped (OpModSwitch)
	Const  float64  // scalar operand (OpAddConst, OpMulConst)
	Plain  *Plain   // plaintext operand (OpMulPlain)
	Rots   []int    // rotation sets (OpRotBasket, OpRotSum, OpDiagMac baby indices)
	Plains []*Plain // per-rotation plaintexts (OpDiagMac)
	Name   string   // input name (OpInput)

	// Facts, valid once Legalize has run (Program.Legal).
	Level  int
	Pend   int // unclosed products: scale ≈ Δ^(1+Pend)
	Degree int

	// Hoist is the shared-decomposition group this rotation belongs to
	// (tier-A hoisting: the lowering decomposes the source once per group).
	// Zero means ungrouped.
	Hoist int
	// Closed marks a RotBasket whose nonzero rotations each pay their ModDown
	// at once, so its DiagMacs encode their diagonals over q_0..q_Level only
	// and close by a reduction sweep instead of a ModDown. Hoist sets it by
	// counting transforms (closeBaskets).
	Closed bool
}

// Program is a topologically ordered value DAG with one designated output.
type Program struct {
	Slots  int
	Values []*Value
	Output *Value
	// Legal reports that the facts on every value are valid: Legalize ran
	// and no structural rewrite has happened since.
	Legal bool
	// InputLevel is the level Legalize assumed for every input.
	InputLevel int
}

// uses returns the number of consumers of each value (the output counts as
// one extra use, so a use count of 1 on the output's operand still means
// "single consumer").
func (p *Program) uses() map[*Value]int {
	n := make(map[*Value]int, len(p.Values))
	for _, v := range p.Values {
		for _, a := range v.Args {
			n[a]++
		}
	}
	if p.Output != nil {
		n[p.Output]++
	}
	return n
}

// dce returns the program restricted to values reachable from the output,
// preserving relative order and renumbering IDs densely.
func dce(p *Program) *Program {
	out := &Program{Slots: p.Slots, Output: p.Output, Legal: p.Legal, InputLevel: p.InputLevel}
	if p.Output != nil {
		out.Values = closure(p, []*Value{p.Output})
	}
	for i, v := range out.Values {
		v.ID = i
	}
	return out
}

// Validate checks structural invariants: topological order, argument arity,
// and fused-op well-formedness. It does not require facts.
func (p *Program) Validate() error {
	if p.Output == nil {
		return fmt.Errorf("fhir: program has no output")
	}
	seen := map[*Value]bool{}
	arity := func(v *Value, n int) error {
		if len(v.Args) != n {
			return fmt.Errorf("fhir: v%d (%s) has %d args, want %d", v.ID, v.Op, len(v.Args), n)
		}
		return nil
	}
	for i, v := range p.Values {
		if v.ID != i {
			return fmt.Errorf("fhir: v%d stored at index %d", v.ID, i)
		}
		for _, a := range v.Args {
			if !seen[a] {
				return fmt.Errorf("fhir: v%d (%s) uses v%d before its definition", v.ID, v.Op, a.ID)
			}
		}
		var err error
		switch v.Op {
		case OpInput:
			err = arity(v, 0)
			if err == nil && v.Name == "" {
				err = fmt.Errorf("fhir: v%d input has no name", v.ID)
			}
		case OpAdd, OpSub, OpMul:
			err = arity(v, 2)
		case OpNeg, OpAddConst, OpMulConst, OpMulPlain, OpRelin, OpRescale, OpModSwitch, OpRotate, OpConjugate:
			err = arity(v, 1)
			if err == nil && v.Op == OpMulPlain && v.Plain == nil {
				err = fmt.Errorf("fhir: v%d mulplain has no plaintext", v.ID)
			}
		case OpRotBasket, OpRotSum:
			err = arity(v, 1)
			if err == nil && len(v.Rots) == 0 {
				err = fmt.Errorf("fhir: v%d %s has no rotations", v.ID, v.Op)
			}
		case OpDiagMac:
			err = arity(v, 1)
			switch {
			case err != nil:
			case v.Args[0].Op != OpRotBasket:
				err = fmt.Errorf("fhir: v%d diagmac source is %s, want rotbasket", v.ID, v.Args[0].Op)
			case len(v.Rots) == 0 || len(v.Rots) != len(v.Plains):
				err = fmt.Errorf("fhir: v%d diagmac has %d rotations and %d plaintexts", v.ID, len(v.Rots), len(v.Plains))
			}
		default:
			err = fmt.Errorf("fhir: v%d has unknown op %d", v.ID, int(v.Op))
		}
		if err == nil && v.Closed && v.Op != OpRotBasket {
			err = fmt.Errorf("fhir: v%d %s is marked closed; only a rotbasket can be", v.ID, v.Op)
		}
		if err != nil {
			return err
		}
		seen[v] = true
	}
	if !seen[p.Output] {
		return fmt.Errorf("fhir: output value is not in the program")
	}
	return nil
}

// Rotations returns every rotation index the program uses (for key
// generation), sorted, excluding 0, plus whether conjugation keys are needed.
func (p *Program) Rotations() (rots []int, conjugate bool) {
	set := map[int]bool{}
	for _, v := range p.Values {
		switch v.Op {
		case OpRotate:
			if v.K != 0 {
				set[v.K] = true
			}
		case OpConjugate:
			conjugate = true
		case OpRotBasket, OpRotSum, OpDiagMac:
			for _, r := range v.Rots {
				if r != 0 {
					set[r] = true
				}
			}
		}
	}
	rots = make([]int, 0, len(set))
	for r := range set {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	return rots, conjugate
}

// String renders the program in a compact single-line-per-value form, used
// by the tests' failure messages; a closed basket reads "closed".
func (p *Program) String() string {
	out := ""
	for _, v := range p.Values {
		out += fmt.Sprintf("v%d = %s", v.ID, v.Op)
		for _, a := range v.Args {
			out += fmt.Sprintf(" v%d", a.ID)
		}
		switch v.Op {
		case OpInput:
			out += " " + v.Name
		case OpRotate:
			out += fmt.Sprintf(" by %d", v.K)
		case OpModSwitch:
			out += fmt.Sprintf(" drop %d", v.K)
		case OpAddConst, OpMulConst:
			out += fmt.Sprintf(" %g", v.Const)
		case OpMulPlain:
			out += " " + v.Plain.cseKey()
		case OpRotBasket, OpRotSum, OpDiagMac:
			out += fmt.Sprintf(" %v", v.Rots)
		}
		if v.Closed {
			out += " closed"
		}
		if p.Legal {
			out += fmt.Sprintf("  [L%d P%d d%d]", v.Level, v.Pend, v.Degree)
		}
		if v == p.Output {
			out += "  <- output"
		}
		out += "\n"
	}
	return out
}
