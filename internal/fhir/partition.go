package fhir

import (
	"fmt"

	"hydra/internal/task"
)

// partition is the one decision of which card computes what, shared by both
// multi-card lowerings (BuildTaskProgram prints it as task computes and
// sends, LowerCluster as card instruction streams):
//
//   - the output addition tree is split into its terms, dealt round-robin
//     over the cards;
//   - each card computes the full closure of its terms (shared subtrees are
//     recomputed per card — the uniform-baby-step choice of the paper's BSGS
//     mapping, which trades duplicate compute for zero redistribution) and
//     folds them locally, in dealing order;
//   - partial sums reduce pairwise onto card 0 in Fig. 3(d)'s tree
//     (task.Reduction), ⌈log2(cards)⌉ rounds of send + receive-and-add, the
//     receiver's partial the left operand;
//   - card 0 re-applies the peeled output wrappers.
type partition struct {
	shares   []share     // shares[c] is card c's; cards past len(shares) idle
	tree     []task.Edge // the reduction's sends, in emission order
	wrappers []*Value    // the peeled Rescale/ModSwitch chain, innermost first
}

// share is one card's work: its output terms and their closure.
type share struct {
	terms []*Value
	vals  []*Value // in program order
}

func partitionFor(p *Program, cards int) (*partition, error) {
	if !p.Legal {
		return nil, fmt.Errorf("fhir: lowering needs a legalized program")
	}
	if cards <= 0 {
		return nil, fmt.Errorf("fhir: card count %d must be positive", cards)
	}
	terms, wrappers := outputTerms(p)
	pt := &partition{wrappers: wrappers}
	for c := 0; c < cards && c < len(terms); c++ {
		var mine []*Value
		for ti := c; ti < len(terms); ti += cards {
			mine = append(mine, terms[ti])
		}
		pt.shares = append(pt.shares, share{terms: mine, vals: closure(p, mine)})
	}
	pt.tree = task.Reduction(nil, len(pt.shares))
	return pt, nil
}

// outputTerms splits the output's addition tree into its top-level terms —
// the parallel units the card partition distributes. Unary wrappers that
// distribute over addition (the Rescale/ModSwitch chain Legalize appends to
// canonicalize the output) are peeled first and returned innermost-first, to
// be re-applied on the aggregating card. A non-add output is a single term.
func outputTerms(p *Program) (terms, wrappers []*Value) {
	out := p.Output
	for out.Op == OpRescale || out.Op == OpModSwitch {
		wrappers = append([]*Value{out}, wrappers...)
		out = out.Args[0]
	}
	var walk func(v *Value)
	walk = func(v *Value) {
		if v.Op == OpAdd && v.Degree == 1 {
			walk(v.Args[0])
			walk(v.Args[1])
			return
		}
		terms = append(terms, v)
	}
	walk(out)
	return terms, wrappers
}

// closure returns every value reachable from the given roots, in program
// order.
func closure(p *Program, roots []*Value) []*Value {
	in := map[*Value]bool{}
	var mark func(v *Value)
	mark = func(v *Value) {
		if in[v] {
			return
		}
		in[v] = true
		for _, a := range v.Args {
			mark(a)
		}
	}
	for _, r := range roots {
		mark(r)
	}
	var out []*Value
	for _, v := range p.Values {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}
