package fhir

import (
	"context"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
)

// LowerCluster compiles a legalized program into per-card instruction
// streams for the functional cluster runtime, printing the same partition
// BuildTaskProgram does. Each card's share is one kernel instruction that runs
// the share's closure through the evaluator Evaluate uses (hoisted baskets,
// extended-basis MACs, deferred relinearization) and folds its terms; the
// partials then reduce in the partition's tree as Send, Recv and an adding
// kernel, and a last kernel on card 0 re-applies the output wrappers. Every
// term a card computes is bit-identical to Evaluate's, residue addition is
// associative and commutative, and each receiver's partial is the left
// operand (the sum keeps the first term's scale, as the add tree does), so
// card 0's "out" register ends bit-identical to Evaluate's output.
//
// Every card accumulates its partial in its "out" register. The caller
// preloads every input ciphertext, under its input name, on every card, and
// runs the streams on evaluators holding Evaluate's keys.
func LowerCluster(p *Program, enc *ckks.Encoder, cards int) ([][]cluster.Instr, error) {
	pt, err := partitionFor(p, cards)
	if err != nil {
		return nil, err
	}
	progs := make([][]cluster.Instr, cards)
	for c, sh := range pt.shares {
		progs[c] = []cluster.Instr{{Op: cluster.OpKernel, Dst: "out", Kernel: kernel(p, enc, nil, sh.vals, sh.terms)}}
	}
	for _, e := range pt.tree {
		progs[e.From] = append(progs[e.From], cluster.Instr{Op: cluster.OpSend, Src: "out", Peer: e.To, Tag: e.From})
		progs[e.To] = append(progs[e.To],
			cluster.Instr{Op: cluster.OpRecv, Dst: "partial", Tag: e.From},
			cluster.Instr{Op: cluster.OpKernel, Dst: "out", Kernel: addPartial})
	}
	if w := pt.wrappers; len(w) > 0 {
		progs[0] = append(progs[0], cluster.Instr{Op: cluster.OpKernel, Dst: "out", Kernel: kernel(p, enc, w[0].Args[0], w, []*Value{p.Output})})
	}
	return progs, nil
}

// addPartial adds a received partial into the card's own, which stays the
// left operand.
func addPartial(_ context.Context, ev *ckks.Evaluator, store map[string]*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return ev.Add(store["out"], store["partial"]), nil
}

// kernel runs vals on a card, inputs read from its store, and returns the sum
// of outs in order. A non-nil in is bound to the card's "out" register first.
func kernel(p *Program, enc *ckks.Encoder, in *Value, vals, outs []*Value) cluster.Kernel {
	return func(ctx context.Context, ev *ckks.Evaluator, store map[string]*ckks.Ciphertext) (*ckks.Ciphertext, error) {
		e := newEvalLowering(p, EvalContext{Eval: ev, Enc: enc}, store)
		if in != nil {
			e.slots[in.ID].ct = store["out"]
		}
		if err := e.run(ctx, vals, outs); err != nil {
			return nil, err
		}
		var acc *ckks.Ciphertext
		for _, v := range outs {
			t, err := e.ct(v)
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = t
			} else {
				acc = ev.Add(acc, t)
			}
		}
		return acc, nil
	}
}
