package ring

// Fused pointwise kernels: single-pass multiply-accumulate over RNS
// polynomials. The naive spelling of acc += a ⊙ b is two full passes over
// the coefficients (a multiply writing a temporary, an add reading it back);
// these kernels keep the product in registers and fold the lazy correction
// into the same pass, the software analogue of the MAC datapath in Hydra's
// pointwise compute units.

// MulCoeffsAdd sets acc = acc + a ⊙ b in a single pass. All operands must be
// in the NTT domain; acc must be canonical on entry and is canonical on
// return. The result is bit-identical to MulCoeffs into a temporary followed
// by Add.
func (r *Ring) MulCoeffsAdd(a, b, acc *Poly) {
	if !a.IsNTT || !b.IsNTT || !acc.IsNTT {
		panic("ring: MulCoeffsAdd requires NTT-domain operands")
	}
	lvl := minLevel(a, b)
	if acc.Level() < lvl {
		lvl = acc.Level()
	}
	ForEachLimb(lvl+1, func(i int) {
		m := r.Tables[i].Mod
		// The accumulator row stays lazy in [0, 2q) across the MAC loop;
		// one ReduceFinalVec sweep canonicalizes it, instead of a branch
		// per element.
		m.MulAddRowLazy(acc.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
		ReduceFinalVec(acc.Coeffs[i], m.Q)
	})
}
