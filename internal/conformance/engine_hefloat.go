package conformance

import (
	"fmt"
	"sort"

	"hydra/internal/ckks"
	"hydra/internal/hefloat"
)

// runHEFloat executes the program on the environment's evaluator. With
// reference=false it takes hefloat's production paths (plan-cached
// double-hoisted BSGS, hoisted and ext-hoisted rotations, power-tree
// polynomials); with reference=true it takes the oracle spellings (oracle.go:
// per-call-encoded single-hoisted BSGS, Horner; sequential rotations). Ops
// with only one hand implementation (add, rotate, bootstrap, ccmm — whose
// optimized executor is the compiler's, in the ir column — a lintrans with no
// baby-step count, …) run identical code on both, so there the two columns'
// outputs must match bitwise.
func runHEFloat(env *Env, s *ProgramSpec, reference bool) (*ckks.Ciphertext, error) {
	eval, enc := env.Eval, env.Encoder
	regs, err := encryptInputs(env, s)
	if err != nil {
		return nil, err
	}
	get := func(name string) (*ckks.Ciphertext, error) {
		ct, ok := regs[name]
		if !ok {
			return nil, fmt.Errorf("register %q undefined", name)
		}
		return ct, nil
	}
	for i, op := range s.Ops {
		a, err := get(op.A)
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
		}
		var out *ckks.Ciphertext
		switch op.Op {
		case "add", "sub", "mul", "ccmm":
			b, err := get(op.B)
			if err != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
			}
			switch op.Op {
			case "add":
				out = eval.Add(a, b)
			case "sub":
				out = eval.Sub(a, b)
			case "mul":
				out = eval.Rescale(eval.MulRelin(a, b))
			case "ccmm":
				if out, err = ccmmReference(env, a, b); err != nil {
					return nil, fmt.Errorf("op %d (ccmm): %w", i, err)
				}
			}
		case "neg":
			out = eval.Neg(a)
		case "conjugate":
			out = eval.Conjugate(a)
		case "rotate":
			out = eval.Rotate(a, op.K)
		case "addconst":
			out = eval.AddConst(a, op.Const)
		case "mulconst":
			out = eval.Rescale(eval.MulByConst(a, op.Const))
		case "mulplain":
			vals, err := GenVector(op.Gen, s.Slots())
			if err != nil {
				return nil, err
			}
			pt, err := enc.EncodeAtLevel(vals, env.Params.DefaultScale(), a.Level())
			if err != nil {
				return nil, err
			}
			out = eval.Rescale(eval.MulPlain(a, pt))
		case "rotsum":
			if reference {
				out = rotSumSequential(eval, a, op.K)
			} else {
				rots := make([]int, op.K)
				for r := range rots {
					rots[r] = r
				}
				hoisted := eval.RotateHoisted(a, rots)
				out = hoisted[0]
				for r := 1; r < op.K; r++ {
					eval.AddAcc(hoisted[r], out)
				}
			}
		case "rotsumext":
			if reference {
				out = rotSumSequential(eval, a, op.K)
			} else {
				// Extended-basis accumulation: every rotation stays in the
				// P·Q basis and the whole sum pays one ModDown.
				rots := make([]int, 0, op.K-1)
				for r := 1; r < op.K; r++ {
					rots = append(rots, r)
				}
				ext := eval.RotateHoistedExt(a, rots)
				acc := eval.NewExtAccumulator(a.Level(), a.Scale)
				for _, r := range rots {
					eval.AddExtAcc(ext[r], acc)
				}
				out = eval.Add(a, eval.ModDownExt(acc))
				for _, r := range rots {
					eval.ReleaseExt(ext[r])
				}
				eval.ReleaseExt(acc)
			}
		case "lintrans":
			m, err := GenMatrix(op.Matrix, s.Slots())
			if err != nil {
				return nil, err
			}
			lt, err := hefloat.NewLinearTransform(m)
			if err != nil {
				return nil, err
			}
			if reference && op.BS > 0 {
				out, err = evaluateBSGSReference(lt, eval, enc, a, op.BS)
			} else {
				out, err = lt.EvaluateBSGS(eval, enc, a, babySteps(op, lt))
			}
			if err != nil {
				return nil, fmt.Errorf("op %d (lintrans): %w", i, err)
			}
		case "pcmm":
			w, err := GenWeights(op.Matrix, isqrt(s.Slots()))
			if err != nil {
				return nil, err
			}
			// One column rotation and one plaintext mask per diagonal: all
			// baby steps, no giant step.
			lt, err := hefloat.NewPCMMTransform(w, s.Slots())
			if err != nil {
				return nil, err
			}
			if reference {
				out, err = evaluateBSGSReference(lt, eval, enc, a, s.Slots())
			} else {
				out, err = lt.EvaluateBSGS(eval, enc, a, s.Slots())
			}
			if err != nil {
				return nil, fmt.Errorf("op %d (pcmm): %w", i, err)
			}
		case "poly":
			p := hefloat.Polynomial{Coeffs: op.Coeffs}
			if reference {
				out, err = evaluateHorner(eval, a, p)
			} else {
				out, err = hefloat.EvaluateTree(eval, a, p)
			}
			if err != nil {
				return nil, fmt.Errorf("op %d (poly): %w", i, err)
			}
		case "bootstrap":
			bt, err := env.bootstrapper()
			if err != nil {
				return nil, fmt.Errorf("op %d (bootstrap): %w", i, err)
			}
			out, err = bt.Bootstrap(a)
			if err != nil {
				return nil, fmt.Errorf("op %d (bootstrap): %w", i, err)
			}
		default:
			return nil, fmt.Errorf("op %d: unknown op %q", i, op.Op)
		}
		regs[op.Dst] = out
	}
	return get(s.Output)
}

// babySteps is the baby-step count a lintrans op evaluates with: the spec's,
// or one per diagonal (the naive rotate-multiply-accumulate sum) when it sets
// none.
func babySteps(op OpSpec, lt *hefloat.LinearTransform) int {
	if op.BS > 0 {
		return op.BS
	}
	return lt.Dim
}

// rotSumSequential is the reference rotation sum: one full keyswitch per
// rotation, folded left to right.
func rotSumSequential(eval *ckks.Evaluator, ct *ckks.Ciphertext, k int) *ckks.Ciphertext {
	acc := ct.CopyNew()
	for r := 1; r < k; r++ {
		eval.AddAcc(eval.Rotate(ct, r), acc)
	}
	return acc
}

// ccmmReference is the hand spelling of the ciphertext matrix product, the
// single-hoisted, per-call-encoded counterpart of fhir's CCMM frontend: the
// σ/τ pre-transforms run through evaluateBSGSReference and every
// per-iteration rotation pays its own keyswitch. Built from the same exported
// CCMMSigma/CCMMTau/CCMMMasks pieces, so the iteration structure is identical
// and only the hoisting — the compiler's business — differs.
func ccmmReference(env *Env, ctX, ctZ *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	eval, enc := env.Eval, env.Encoder
	slots := env.Params.Slots()
	k := isqrt(slots)
	if k*k != slots {
		return nil, fmt.Errorf("ccmm needs a square slot count, got %d", slots)
	}
	sigma, err := hefloat.NewLinearTransform(hefloat.CCMMSigma(k))
	if err != nil {
		return nil, err
	}
	tau, err := hefloat.NewLinearTransform(hefloat.CCMMTau(k))
	if err != nil {
		return nil, err
	}
	a, err := evaluateBSGSReference(sigma, eval, enc, ctX, slots)
	if err != nil {
		return nil, err
	}
	b, err := evaluateBSGSReference(tau, eval, enc, ctZ, slots)
	if err != nil {
		return nil, err
	}
	scale := env.Params.DefaultScale()
	var acc *ckks.Ciphertext
	for d := 0; d < k; d++ {
		ad := a
		if d != 0 {
			ad = eval.Rotate(a, d*k)
		}
		maskMain, maskWrap := hefloat.CCMMMasks(k, d)
		ptMain, err := enc.EncodeAtLevel(maskMain, scale, b.Level())
		if err != nil {
			return nil, err
		}
		var bd *ckks.Ciphertext
		if d == 0 {
			bd = eval.Rescale(eval.MulPlain(b, ptMain))
		} else {
			ptWrap, err := enc.EncodeAtLevel(maskWrap, scale, b.Level())
			if err != nil {
				return nil, err
			}
			main := eval.MulPlain(eval.Rotate(b, d), ptMain)
			wrap := eval.MulPlain(eval.Rotate(b, d-k), ptWrap)
			bd = eval.Rescale(eval.Add(main, wrap))
		}
		aligned := ad.CopyNew()
		if aligned.Level() > bd.Level() {
			aligned.DropLevel(aligned.Level() - bd.Level())
		}
		term := eval.MulRelin(aligned, bd)
		if acc == nil {
			acc = term
		} else {
			eval.AddAcc(term, acc)
		}
	}
	return eval.Rescale(acc), nil
}

// sortedKeys is a tiny helper for deterministic map iteration in reports.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
