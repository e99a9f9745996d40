package cluster

import (
	"fmt"

	"hydra/internal/ckks"
)

// The one hand-written instruction-stream builder: the ring-broadcast
// convolution, whose all-gather (every output on every card) has no
// single-output fhir form. Every other program reaches the cards through
// fhir.LowerCluster.

// ConvLayer describes a simplified packed convolution layer: kernel k
// contributes Rotate(input, Rotations[k]) ⊙ Weights[k], and all kernel
// outputs must end up on every card (the Fig. 1-2 aggregation).
type ConvLayer struct {
	Rotations []int
	Weights   []*ckks.Plaintext
}

// BuildConv emits per-card instruction streams for the ring-broadcast
// convolution mapping: kernels are assigned round-robin; each finished
// output is sent to every other card while the next kernel computes. The
// input must be loaded as "x" on every card; outputs land as "out<k>"
// everywhere.
func BuildConv(cards int, layer ConvLayer) ([][]Instr, error) {
	n := len(layer.Rotations)
	if n == 0 || n != len(layer.Weights) {
		return nil, fmt.Errorf("cluster: conv layer needs matching rotations and weights")
	}
	progs := make([][]Instr, cards)
	tag := 0
	for k := 0; k < n; k++ {
		owner := k % cards
		out := fmt.Sprintf("out%d", k)
		progs[owner] = append(progs[owner],
			Instr{Op: OpRotate, Dst: "t", Src1: "x", Imm: layer.Rotations[k]},
			Instr{Op: OpPMult, Dst: "t", Src1: "t", Plain: layer.Weights[k]},
			Instr{Op: OpRescale, Dst: out, Src1: "t"},
		)
		for dst := 0; dst < cards; dst++ {
			if dst == owner {
				continue
			}
			progs[owner] = append(progs[owner], Instr{Op: OpSend, Src1: out, Peer: dst, Tag: tag})
			progs[dst] = append(progs[dst], Instr{Op: OpRecv, Dst: out, Tag: tag})
			tag++
		}
	}
	return progs, nil
}
