package conformance

import (
	"fmt"
	"sort"

	"hydra/internal/ckks"
	"hydra/internal/hefloat"
)

// The reference column's oracles: the simplest correct spelling of each
// algorithm hefloat ships one optimized path for. They live here, not in
// hefloat, because nothing but this harness and its tests may reach them —
// internal/conformance is imported by no other package.

// evaluateBSGSReference is the single-hoisted BSGS evaluation: every giant
// step pays a full keyswitch (accumulate + ModDown) for its rotation and the
// diagonals are re-encoded per call. It is the oracle the plan-cached
// double-hoisted hefloat.LinearTransform.EvaluateBSGS is pinned against.
func evaluateBSGSReference(lt *hefloat.LinearTransform, eval *ckks.Evaluator, enc *ckks.Encoder, ct *ckks.Ciphertext, bs int) (*ckks.Ciphertext, error) {
	if bs <= 0 {
		return nil, fmt.Errorf("conformance: baby-step count must be positive, got %d", bs)
	}
	// Group diagonals by giant step g = d - d%bs.
	groups := map[int][]int{}
	for d := range lt.Diags {
		g := d - d%bs
		groups[g] = append(groups[g], d)
	}
	// Baby steps: all needed rotations of the input, computed with a single
	// hoisted decomposition (the digit decomposition is shared across the
	// rotations, the optimization BSGS exists to exploit).
	needed := map[int]bool{}
	for d := range lt.Diags {
		needed[d%bs] = true
	}
	rotList := make([]int, 0, len(needed))
	for j := range needed {
		rotList = append(rotList, j)
	}
	sort.Ints(rotList)
	baby := eval.RotateHoisted(ct, rotList)

	// Giant steps in sorted order, each folded into the running sum as soon
	// as it is rotated into place.
	gs := make([]int, 0, len(groups))
	for g := range groups {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	var acc *ckks.Ciphertext
	for _, g := range gs {
		ds := groups[g]
		sort.Ints(ds)
		// inner = Σ_j diag_{g+j} rotated by -g, times baby_j.
		var inner *ckks.Ciphertext
		for _, d := range ds {
			pt, err := enc.EncodeAtLevel(lt.ShiftedDiag(d, g), eval.Params().DefaultScale(), ct.Level())
			if err != nil {
				return nil, err
			}
			term := eval.MulPlain(baby[d-g], pt)
			if inner == nil {
				inner = term
			} else {
				eval.AddAcc(term, inner)
			}
		}
		if g != 0 {
			inner = eval.Rotate(inner, g)
		}
		if acc == nil {
			acc = inner
		} else {
			eval.AddAcc(inner, acc)
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("conformance: transform has no non-zero diagonals")
	}
	return eval.Rescale(acc), nil
}

// evaluateHorner evaluates p on ct by Horner's rule: deg sequential
// ciphertext multiplications (depth = deg). Simple but deep; the oracle for
// hefloat.EvaluateTree.
func evaluateHorner(eval *ckks.Evaluator, ct *ckks.Ciphertext, p hefloat.Polynomial) (*ckks.Ciphertext, error) {
	deg := p.Degree()
	if deg < 1 {
		return nil, fmt.Errorf("conformance: polynomial degree must be >= 1")
	}
	if ct.Level() < deg+1 {
		return nil, fmt.Errorf("conformance: level %d insufficient for Horner degree %d", ct.Level(), deg)
	}
	acc := eval.Rescale(eval.MulByConst(ct, p.Coeffs[deg]))
	acc = eval.AddConst(acc, p.Coeffs[deg-1])
	for i := deg - 2; i >= 0; i-- {
		acc = eval.Rescale(eval.MulRelin(acc, ct))
		acc = eval.AddConst(acc, p.Coeffs[i])
	}
	return acc, nil
}
