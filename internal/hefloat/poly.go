package hefloat

import (
	"fmt"

	"hydra/internal/ckks"
)

// Polynomial is a real polynomial c[0] + c[1]x + … + c[deg]x^deg.
type Polynomial struct {
	Coeffs []float64
}

// Degree returns the polynomial degree.
func (p Polynomial) Degree() int { return len(p.Coeffs) - 1 }

// Depth returns the multiplicative depth consumed by EvaluateTree.
func (p Polynomial) Depth() int {
	d := 0
	for 1<<d < p.Degree()+1 {
		d++
	}
	return d
}

// EvaluateTree evaluates p on ct with the power-tree method the paper's
// Alg. 1 distributes across cards: compute x^2, x^4, …, x^(2^k) (the tree
// spine), form all odd-power building blocks, and combine sub-polynomials
// pairwise. Depth is ceil(log2(deg+1)) instead of deg.
//
// The recursion splits p(x) = lo(x) + x^(2^(k-1))·hi(x) at the largest power
// of two below deg+1, mirroring Fig. 3(a).
func EvaluateTree(eval *ckks.Evaluator, ct *ckks.Ciphertext, p Polynomial) (*ckks.Ciphertext, error) {
	deg := p.Degree()
	if deg < 1 {
		return nil, fmt.Errorf("hefloat: polynomial degree must be >= 1")
	}
	depth := p.Depth()
	if ct.Level() < depth+1 {
		return nil, fmt.Errorf("hefloat: level %d insufficient for tree depth %d", ct.Level(), depth)
	}
	// Powers x^(2^i), shared by all sub-polynomials (the nodes Alg. 1 assigns
	// to low-numbered cards).
	pows := []*ckks.Ciphertext{ct}
	for 1<<len(pows) <= deg {
		prev := pows[len(pows)-1]
		pows = append(pows, eval.Rescale(eval.MulRelin(prev, prev)))
	}
	out := evalTreeRec(eval, pows, p.Coeffs)
	return out, nil
}

// evalTreeRec evaluates the polynomial with the given coefficients using the
// precomputed binary powers. Returns nil for an all-zero polynomial.
func evalTreeRec(eval *ckks.Evaluator, pows []*ckks.Ciphertext, coeffs []float64) *ckks.Ciphertext {
	// Base case: degree <= 1.
	if len(coeffs) <= 2 {
		var acc *ckks.Ciphertext
		if len(coeffs) == 2 && coeffs[1] != 0 {
			acc = eval.Rescale(eval.MulByConst(pows[0], coeffs[1]))
		}
		if coeffs[0] != 0 {
			if acc == nil {
				acc = eval.Rescale(eval.MulByConst(pows[0], 0)) // zero ciphertext at matching level
			}
			acc = eval.AddConst(acc, coeffs[0])
		}
		return acc
	}
	// Split at the largest power of two strictly below len(coeffs).
	split := 1
	for split*2 < len(coeffs) {
		split *= 2
	}
	k := 0
	for 1<<k != split {
		k++
	}
	lo := evalTreeRec(eval, pows, coeffs[:split])
	hi := evalTreeRec(eval, pows, coeffs[split:])
	if hi == nil {
		return lo
	}
	term := eval.Rescale(eval.MulRelin(hi, pows[k]))
	if lo == nil {
		return term
	}
	// Align scales: term went through one more rescale than lo may have.
	return AddAligned(eval, lo, term)
}

// AddAligned adds two ciphertexts that went through rescaling chains of
// different depth. The shallower (higher-level) operand is multiplied by 1.0
// encoded at a corrective scale and rescaled once, landing it exactly on the
// deeper operand's scale; remaining spare levels are then dropped.
func AddAligned(eval *ckks.Evaluator, a, b *ckks.Ciphertext) *ckks.Ciphertext {
	// Ensure a is the deeper (lower-level) operand.
	if a.Level() > b.Level() {
		a, b = b, a
	}
	targetLevel := a.Level()
	if a.Level() == b.Level() && !scalesClose(a.Scale, b.Scale) {
		// No spare level on either side: spend one level on b's corrective
		// multiply and drop a to match.
		targetLevel--
		a = a.CopyNew()
		a.DropLevel(1)
	}
	b = matchScaleLevel(eval, b, a.Scale, targetLevel)
	return eval.Add(a, b)
}

// matchScaleLevel brings ct to the target scale and level. ct must be at a
// level strictly above target when its scale differs from targetScale.
func matchScaleLevel(eval *ckks.Evaluator, ct *ckks.Ciphertext, targetScale float64, targetLevel int) *ckks.Ciphertext {
	if !scalesClose(ct.Scale, targetScale) {
		if ct.Level() <= targetLevel {
			panic("hefloat: cannot align scales without a spare level")
		}
		q := eval.Params().Q()[ct.Level()]
		corrective := float64(q) * targetScale / ct.Scale
		ct = eval.Rescale(eval.MulByConstWithScale(ct, 1.0, corrective))
	}
	if ct.Level() > targetLevel {
		ct = ct.CopyNew()
		ct.DropLevel(ct.Level() - targetLevel)
	}
	return ct
}

func scalesClose(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*b
}
