// Package fheop defines the vocabulary of FHE operations that the Hydra
// scheduler dispatches and the accelerator model costs: the CKKS operation
// set (HAdd, PMult, CMult, Rescale, KeySwitch, Rotation) and the four basic
// hardware operators they decompose into (NTT, modular add, modular mul,
// automorphism), mirroring Section IV-A of the paper.
package fheop

import "fmt"

// Op identifies a CKKS-level operation.
type Op int

// CKKS-level operations. CMult includes the tensor product and its
// relinearization key switch; Rotation includes its key switch. Rescale is
// charged separately, as in Table I of the paper.
const (
	HAdd Op = iota
	PMult
	CMult
	Rescale
	KeySwitch
	Rotation
	Conjugate
	numOps
)

// String returns the operation mnemonic.
func (o Op) String() string {
	switch o {
	case HAdd:
		return "HAdd"
	case PMult:
		return "PMult"
	case CMult:
		return "CMult"
	case Rescale:
		return "Rescale"
	case KeySwitch:
		return "KeySwitch"
	case Rotation:
		return "Rotation"
	case Conjugate:
		return "Conjugate"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Ops lists all CKKS-level operations.
func Ops() []Op {
	out := make([]Op, numOps)
	for i := range out {
		out[i] = Op(i)
	}
	return out
}

// Counts is a multiset of CKKS-level operations, e.g. the recipe of one
// parallel unit of a ConvBN layer (8 Rotations, 2 PMults, 7 HAdds).
type Counts [numOps]int

// Of builds a Counts from (op, n) pairs.
func Of(pairs ...interface{}) Counts {
	if len(pairs)%2 != 0 {
		panic("fheop: Of requires (op, count) pairs")
	}
	var c Counts
	for i := 0; i < len(pairs); i += 2 {
		op, ok1 := pairs[i].(Op)
		n, ok2 := pairs[i+1].(int)
		if !ok1 || !ok2 {
			panic("fheop: Of requires (Op, int) pairs")
		}
		c[op] += n
	}
	return c
}

// Add returns the element-wise sum of two count vectors.
func (c Counts) Add(o Counts) Counts {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// Scale returns the count vector multiplied by n.
func (c Counts) Scale(n int) Counts {
	for i := range c {
		c[i] *= n
	}
	return c
}

// Get returns the count for op.
func (c Counts) Get(op Op) int { return c[op] }

// String formats the non-zero entries.
func (c Counts) String() string {
	s := ""
	for i, n := range c {
		if n == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s×%d", Op(i), n)
	}
	if s == "" {
		return "∅"
	}
	return s
}

// BasicOp identifies one of the four hardware compute units of a Hydra card.
type BasicOp int

// The four basic operators (Fig. 4 of the paper).
const (
	NTT  BasicOp = iota
	MA           // modular addition
	MM           // modular multiplication
	Auto         // automorphism (data permutation)
	numBasicOps
)

// String returns the unit mnemonic.
func (b BasicOp) String() string {
	switch b {
	case NTT:
		return "NTT"
	case MA:
		return "MA"
	case MM:
		return "MM"
	case Auto:
		return "Auto"
	default:
		return fmt.Sprintf("BasicOp(%d)", int(b))
	}
}

// BasicOps lists the four basic operators.
func BasicOps() []BasicOp {
	return []BasicOp{NTT, MA, MM, Auto}
}

// BasicCounts counts invocations of each basic operator, where one NTT unit
// invocation is a full length-N transform of one RNS limb and one MA/MM/Auto
// invocation is one pass over the N coefficients of one limb.
type BasicCounts [numBasicOps]int

// Add returns the element-wise sum.
func (b BasicCounts) Add(o BasicCounts) BasicCounts {
	for i := range b {
		b[i] += o[i]
	}
	return b
}

// Get returns the count for the basic operator.
func (b BasicCounts) Get(op BasicOp) int { return b[op] }
