package fhir

import (
	"fmt"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
)

// LowerCluster compiles a legalized program into per-card instruction
// streams for the functional cluster runtime. The cluster instruction set is
// deliberately primitive — degree-1 ciphertexts, relinearized CMult, no
// extended basis — so the optimized IR forms de-optimize on the way down:
//
//   - Mul lowers to the relinearized OpCMult and the IR's Relin becomes a
//     copy (relinearization is linear, so eagerly relinearizing each product
//     of a lazy sum agrees with the deferred form up to keyswitch noise);
//   - RotBasket/DiagMac/RotSum expand back into rotate/pmult/add chains,
//     with rotations de-duplicated per card;
//   - ModSwitch becomes a copy: every cluster op aligns operand levels
//     itself, and plaintext operands are encoded at the IR's fact level, so
//     the modulus chain re-converges at each multiplication.
//
// The partition mirrors LowerTask: output terms round-robin over cards, each
// card computing the closure of its share, partials sent to card 0 and
// folded there. The result lands in register "out" on card 0. The caller
// preloads every input ciphertext, under its input name, on every card.
func LowerCluster(p *Program, enc *ckks.Encoder, cards int) ([][]cluster.Instr, error) {
	if !p.Legal {
		return nil, fmt.Errorf("fhir: LowerCluster needs a legalized program")
	}
	if cards <= 0 {
		return nil, fmt.Errorf("fhir: card count %d must be positive", cards)
	}
	terms, wrappers := outputTerms(p)
	progs := make([][]cluster.Instr, cards)
	// Cards with overlapping closures share one read-only encode, this call only.
	memo := map[plainAt]*ckks.Plaintext{}
	used := 0
	for ci := 0; ci < cards && ci < len(terms); ci++ {
		var mine []*Value
		for ti := ci; ti < len(terms); ti += cards {
			mine = append(mine, terms[ti])
		}
		cc := &clusterCard{p: p, enc: enc, memo: memo, reg: map[*Value]string{}, rotCache: map[string]string{}}
		for _, v := range closure(p, mine) {
			if err := cc.lower(v); err != nil {
				return nil, fmt.Errorf("fhir: cluster card %d, v%d (%s): %w", ci, v.ID, v.Op, err)
			}
		}
		acc := cc.reg[mine[0]]
		for _, t := range mine[1:] {
			acc = cc.fold(cluster.OpAdd, acc, cc.reg[t])
		}
		if ci == 0 {
			cc.ins = append(cc.ins, cluster.Instr{Op: cluster.OpCopy, Dst: "partial0", Src1: acc})
		} else {
			cc.ins = append(cc.ins, cluster.Instr{Op: cluster.OpSend, Src1: acc, Peer: 0, Tag: ci})
		}
		progs[ci] = cc.ins
		used++
	}
	// Card 0 folds the peers' partials after running its own share, then
	// re-applies the peeled output canonicalization (Rescale chain; a peeled
	// ModSwitch needs no instruction — cluster ops align levels themselves).
	if used > 0 {
		acc := clusterOut(progs, used)
		for _, w := range wrappers {
			if w.Op == OpRescale {
				progs[0] = append(progs[0], cluster.Instr{Op: cluster.OpRescale, Dst: "out", Src1: acc})
				acc = "out"
			}
		}
		if acc != "out" {
			progs[0] = append(progs[0], cluster.Instr{Op: cluster.OpCopy, Dst: "out", Src1: acc})
		}
	}
	return progs, nil
}

// clusterOut appends the receive-and-add aggregation to card 0's stream and
// returns the register holding the folded partial.
func clusterOut(progs [][]cluster.Instr, used int) string {
	acc := "partial0"
	for peer := 1; peer < used; peer++ {
		r := fmt.Sprintf("recv%d", peer)
		progs[0] = append(progs[0], cluster.Instr{Op: cluster.OpRecv, Dst: r, Tag: peer})
		dst := fmt.Sprintf("agg%d", peer)
		progs[0] = append(progs[0], cluster.Instr{Op: cluster.OpAdd, Dst: dst, Src1: acc, Src2: r})
		acc = dst
	}
	return acc
}

type plainAt struct {
	pl    *Plain
	level int
}

type clusterCard struct {
	p        *Program
	enc      *ckks.Encoder
	memo     map[plainAt]*ckks.Plaintext
	ins      []cluster.Instr
	reg      map[*Value]string
	rotCache map[string]string // "srcReg@k" -> register holding the rotation
	tmp      int
}

func (c *clusterCard) fresh() string {
	c.tmp++
	return fmt.Sprintf("t%d", c.tmp)
}

func (c *clusterCard) fold(op cluster.OpCode, a, b string) string {
	dst := c.fresh()
	c.ins = append(c.ins, cluster.Instr{Op: op, Dst: dst, Src1: a, Src2: b})
	return dst
}

func (c *clusterCard) rotate(srcReg string, k int) string {
	if k == 0 {
		return srcReg
	}
	key := fmt.Sprintf("%s@%d", srcReg, k)
	if r, ok := c.rotCache[key]; ok {
		return r
	}
	dst := c.fresh()
	c.ins = append(c.ins, cluster.Instr{Op: cluster.OpRotate, Dst: dst, Src1: srcReg, Imm: k})
	c.rotCache[key] = dst
	return dst
}

func (c *clusterCard) encode(pl *Plain, level int) (*ckks.Plaintext, error) {
	key := plainAt{pl, level}
	if pt := c.memo[key]; pt != nil {
		return pt, nil
	}
	pt, err := encodePlain(c.enc, pl, c.p.Slots, level)
	c.memo[key] = pt
	return pt, err
}

func (c *clusterCard) lower(v *Value) error {
	dst := fmt.Sprintf("v%d", v.ID)
	emit := func(ins cluster.Instr) {
		ins.Dst = dst
		c.ins = append(c.ins, ins)
		c.reg[v] = dst
	}
	arg := func(i int) string { return c.reg[v.Args[i]] }
	switch v.Op {
	case OpInput:
		c.reg[v] = v.Name // preloaded by the host
	case OpAdd:
		emit(cluster.Instr{Op: cluster.OpAdd, Src1: arg(0), Src2: arg(1)})
	case OpSub:
		emit(cluster.Instr{Op: cluster.OpSub, Src1: arg(0), Src2: arg(1)})
	case OpNeg:
		emit(cluster.Instr{Op: cluster.OpNeg, Src1: arg(0)})
	case OpAddConst:
		emit(cluster.Instr{Op: cluster.OpAddConst, Src1: arg(0), Const: v.Const})
	case OpMulConst:
		// No unrescaled mul-by-const instruction: encode the constant as a
		// plaintext vector at the operand's fact level. The IR's own Rescale
		// follows separately, exactly as for MulPlain.
		pl := &Plain{Values: func(slots int) ([]complex128, error) {
			out := make([]complex128, slots)
			for i := range out {
				out[i] = complex(v.Const, 0)
			}
			return out, nil
		}}
		pt, err := c.encode(pl, v.Args[0].Level)
		if err != nil {
			return err
		}
		emit(cluster.Instr{Op: cluster.OpPMult, Src1: arg(0), Plain: pt})
	case OpMulPlain:
		pt, err := c.encode(v.Plain, v.Args[0].Level)
		if err != nil {
			return err
		}
		emit(cluster.Instr{Op: cluster.OpPMult, Src1: arg(0), Plain: pt})
	case OpMul:
		emit(cluster.Instr{Op: cluster.OpCMult, Src1: arg(0), Src2: arg(1)})
	case OpRelin, OpModSwitch, OpRotBasket:
		c.reg[v] = arg(0)
	case OpRescale:
		emit(cluster.Instr{Op: cluster.OpRescale, Src1: arg(0)})
	case OpRotate:
		emit(cluster.Instr{Op: cluster.OpRotate, Src1: arg(0), Imm: v.K})
	case OpConjugate:
		emit(cluster.Instr{Op: cluster.OpConjugate, Src1: arg(0)})
	case OpDiagMac:
		src := arg(0) // the basket collapsed to its source register
		var acc string
		for j, k := range v.Rots {
			pt, err := c.encode(v.Plains[j], v.Level)
			if err != nil {
				return err
			}
			term := c.fresh()
			c.ins = append(c.ins, cluster.Instr{Op: cluster.OpPMult, Dst: term, Src1: c.rotate(src, k), Plain: pt})
			if acc == "" {
				acc = term
			} else {
				acc = c.fold(cluster.OpAdd, acc, term)
			}
		}
		c.ins = append(c.ins, cluster.Instr{Op: cluster.OpCopy, Dst: dst, Src1: acc})
		c.reg[v] = dst
	case OpRotSum:
		var acc string
		for _, k := range v.Rots {
			term := c.rotate(arg(0), k)
			if acc == "" {
				acc = term
			} else {
				acc = c.fold(cluster.OpAdd, acc, term)
			}
		}
		c.ins = append(c.ins, cluster.Instr{Op: cluster.OpCopy, Dst: dst, Src1: acc})
		c.reg[v] = dst
	default:
		return fmt.Errorf("op %s is not lowered", v.Op)
	}
	return nil
}
