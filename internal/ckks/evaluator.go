package ckks

import (
	"fmt"
	"math"

	"hydra/internal/ring"
)

// Evaluator performs homomorphic operations on ciphertexts. It corresponds to
// the FHE operation set that the Hydra accelerator implements in hardware:
// HAdd, PMult, CMult (+ relinearization), Rescale, KeySwitch, and Rotation.
type Evaluator struct {
	params *Parameters
	rlk    *RelinearizationKey
	rtks   *RotationKeySet

	// modUp[d][g-1] lifts keyswitch digit d, g of its limbs active, to the
	// rest of the extended basis; modDown divides by P.
	modUp   [][]*ring.BasisConv
	modDown *ring.ModDown
}

// NewEvaluator builds an evaluator. rlk and rtks may be nil if multiplication
// or rotations respectively are never used.
func NewEvaluator(params *Parameters, rlk *RelinearizationKey, rtks *RotationKeySet) *Evaluator {
	r := params.RingQP()
	ev := &Evaluator{params: params, rlk: rlk, rtks: rtks}
	top := params.MaxLevel()
	ev.modUp = make([][]*ring.BasisConv, params.digits(top))
	for d := range ev.modUp {
		lo, hi := params.digit(d, top)
		for end := lo + 1; end <= hi; end++ {
			ev.modUp[d] = append(ev.modUp[d], r.NewBasisConv(lo, end))
		}
	}
	ev.modDown = r.NewModDown(params.SpecialIndex(), len(r.Moduli))
	return ev
}

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

func sameScale(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(a, b)
}

// alignLevels drops levels so both ciphertexts share the lower level,
// returning copies when truncation is needed.
func alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext) {
	switch {
	case a.Level() > b.Level():
		a2 := a.CopyNew()
		a2.DropLevel(a.Level() - b.Level())
		return a2, b
	case b.Level() > a.Level():
		b2 := b.CopyNew()
		b2.DropLevel(b.Level() - a.Level())
		return a, b2
	default:
		return a, b
	}
}

// Add returns a + b. Scales must match.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in Add: %g vs %g", a.Scale, b.Scale))
	}
	a, b = alignLevels(a, b)
	r := ev.params.RingQP()
	out := &Ciphertext{C0: r.NewPoly(a.Level()), C1: r.NewPoly(a.Level()), Scale: a.Scale}
	r.Add(a.C0, b.C0, out.C0)
	r.Add(a.C1, b.C1, out.C1)
	return out
}

// Sub returns a - b. Scales must match.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in Sub: %g vs %g", a.Scale, b.Scale))
	}
	a, b = alignLevels(a, b)
	r := ev.params.RingQP()
	out := &Ciphertext{C0: r.NewPoly(a.Level()), C1: r.NewPoly(a.Level()), Scale: a.Scale}
	r.Sub(a.C0, b.C0, out.C0)
	r.Sub(a.C1, b.C1, out.C1)
	return out
}

// Neg returns -ct (free: no level or scale cost).
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	r := ev.params.RingQP()
	out := &Ciphertext{C0: r.NewPoly(ct.Level()), C1: r.NewPoly(ct.Level()), Scale: ct.Scale}
	r.Neg(ct.C0, out.C0)
	r.Neg(ct.C1, out.C1)
	return out
}

// RaiseModulus re-expresses a level-0 ciphertext at the top level without
// changing its coefficients (the ModRaise step of bootstrapping): the result
// decrypts to m + q0·I(X) for a small integer polynomial I, which the
// EvaExp/DAF stage of bootstrapping removes homomorphically.
func (ev *Evaluator) RaiseModulus(ct *Ciphertext) *Ciphertext {
	if ct.Level() != 0 {
		panic("ckks: RaiseModulus expects a level-0 ciphertext")
	}
	r := ev.params.RingQP()
	top := len(ev.params.Q()) - 1
	out := &Ciphertext{C0: r.NewPoly(top), C1: r.NewPoly(top), Scale: ct.Scale}
	q0 := r.Moduli[0]
	for _, pair := range [][2]*ring.Poly{{ct.C0, out.C0}, {ct.C1, out.C1}} {
		src := r.GetScratch(0)
		src.Copy(pair[0])
		r.INTT(src)
		coeffs := src.Coeffs[0]
		dst := pair[1]
		ring.ForEachLimb(top+1, func(i int) {
			qi := r.Moduli[i]
			row := dst.Coeffs[i]
			for j, c := range coeffs {
				row[j] = ring.CenteredMod(c, q0, qi)
			}
		})
		r.PutScratch(src)
		dst.IsNTT = false
		r.NTT(dst)
	}
	return out
}

// AddConst returns ct + c where c is a scalar applied to every slot. The
// constant is encoded at the ciphertext's scale, so the result keeps it.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) *Ciphertext {
	r := ev.params.RingQP()
	out := ct.CopyNew()
	// A constant polynomial k has NTT image k in every position.
	neg := c < 0
	k := uint64(math.Round(math.Abs(c) * ct.Scale))
	ring.ForEachLimb(out.Level()+1, func(i int) {
		q := r.Moduli[i]
		kq := ring.Reduce(k, q)
		if neg {
			kq = ring.NegMod(kq, q)
		}
		row := out.C0.Coeffs[i]
		for j := range row {
			row[j] = ring.AddMod(row[j], kq, q)
		}
	})
	return out
}

// MulPlain returns ct ⊙ pt. The result's scale is the product of scales; call
// Rescale to bring it back down.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	lvl := ct.Level()
	if pt.Level() < lvl {
		lvl = pt.Level()
	}
	r := ev.params.RingQP()
	out := &Ciphertext{C0: r.NewPoly(lvl), C1: r.NewPoly(lvl), Scale: ct.Scale * pt.Scale}
	r.MulCoeffs(atLevel(ct.C0, lvl), atLevel(pt.Value, lvl), out.C0)
	r.MulCoeffs(atLevel(ct.C1, lvl), atLevel(pt.Value, lvl), out.C1)
	return out
}

// AddAcc adds b into acc in place (acc += b), sparing the fresh allocation
// of Add. Scales must match; acc is truncated in place when b sits at a
// lower level.
func (ev *Evaluator) AddAcc(b *Ciphertext, acc *Ciphertext) {
	if !sameScale(acc.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in AddAcc: %g vs %g", acc.Scale, b.Scale))
	}
	if acc.Level() > b.Level() {
		acc.DropLevel(acc.Level() - b.Level())
	}
	r := ev.params.RingQP()
	r.Add(acc.C0, atLevel(b.C0, acc.Level()), acc.C0)
	r.Add(acc.C1, atLevel(b.C1, acc.Level()), acc.C1)
}

// MulByConst multiplies every slot by scalar c, encoding c at the default
// scale. The result's scale is ct.Scale · DefaultScale; Rescale afterwards.
func (ev *Evaluator) MulByConst(ct *Ciphertext, c float64) *Ciphertext {
	return ev.MulByConstWithScale(ct, c, ev.params.DefaultScale())
}

// MulByConstWithScale multiplies every slot by scalar c encoded at the given
// scale. The result's scale is ct.Scale · round(|c|·scale)/|c| when c ≠ 0
// (i.e. the exact integer multiplier is accounted for), ct.Scale · scale when
// c is 0. Choosing scale = q_level · target / ct.Scale followed by Rescale
// lands the ciphertext exactly on a target scale, which the tree polynomial
// evaluator uses to align branches of different depth.
func (ev *Evaluator) MulByConstWithScale(ct *Ciphertext, c, scale float64) *Ciphertext {
	r := ev.params.RingQP()
	neg := c < 0
	k := uint64(math.Round(math.Abs(c) * scale))
	outScale := ct.Scale * scale
	if c != 0 && k != 0 {
		// Track the scale actually applied by the rounded integer multiplier.
		outScale = ct.Scale * float64(k) / math.Abs(c)
	}
	out := &Ciphertext{C0: r.NewPoly(ct.Level()), C1: r.NewPoly(ct.Level()), Scale: outScale}
	ring.ForEachLimb(ct.Level()+1, func(i int) {
		q := r.Moduli[i]
		kq := ring.Reduce(k, q)
		if neg {
			kq = ring.NegMod(kq, q)
		}
		ks := ring.ShoupPrecomp(kq, q)
		src0, src1 := ct.C0.Coeffs[i], ct.C1.Coeffs[i]
		dst0, dst1 := out.C0.Coeffs[i], out.C1.Coeffs[i]
		for j := range src0 {
			dst0[j] = ring.MulModShoup(src0[j], kq, ks, q)
			dst1[j] = ring.MulModShoup(src1[j], kq, ks, q)
		}
	})
	out.C0.IsNTT = true
	out.C1.IsNTT = true
	return out
}

// MulRelin returns a·b, relinearized back to degree 1 with the evaluator's
// relinearization key. The result's scale is the product; Rescale afterwards.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) *Ciphertext {
	if ev.rlk == nil {
		panic("ckks: evaluator has no relinearization key")
	}
	a, b = alignLevels(a, b)
	r := ev.params.RingQP()
	lvl := a.Level()

	d0 := r.NewPoly(lvl)
	d1 := r.NewPoly(lvl)
	d2 := r.GetScratch(lvl)
	r.MulCoeffs(a.C0, b.C0, d0)
	r.MulCoeffs(a.C0, b.C1, d1)
	r.MulCoeffsAdd(a.C1, b.C0, d1)
	r.MulCoeffs(a.C1, b.C1, d2)

	ks0, ks1 := ev.keySwitch(d2, ev.rlk.Key)
	r.PutScratch(d2)
	r.Add(d0, ks0, d0)
	r.Add(d1, ks1, d1)
	return &Ciphertext{C0: d0, C1: d1, Scale: a.Scale * b.Scale}
}

// Rescale divides the ciphertext by its top modulus (rounding), dropping one
// level and dividing the scale by that modulus.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	lvl := ct.Level()
	if lvl == 0 {
		panic("ckks: cannot rescale at level 0")
	}
	r := ev.params.RingQP()
	qLast := r.Moduli[lvl]
	out := &Ciphertext{
		C0:    ev.divRoundByModulus(ct.C0, lvl),
		C1:    ev.divRoundByModulus(ct.C1, lvl),
		Scale: ct.Scale / float64(qLast),
	}
	return out
}

// divRoundByModulus computes round(p / q_top) over the remaining residues.
// p is NTT-domain at level top; the result is NTT-domain at level top-1.
func (ev *Evaluator) divRoundByModulus(p *ring.Poly, top int) *ring.Poly {
	r := ev.params.RingQP()
	qLast := r.Moduli[top]
	qLastInv := func(qj uint64) uint64 { return ring.InvMod(ring.Reduce(qLast, qj), qj) }

	work := r.GetScratch(top)
	work.Copy(p)
	r.INTT(work)
	out := r.NewPoly(top - 1)
	ring.ForEachLimb(top, func(j int) {
		qj := r.Moduli[j]
		inv := qLastInv(qj)
		invShoup := ring.ShoupPrecomp(inv, qj)
		src := work.Coeffs[j]
		rem := work.Coeffs[top]
		dst := out.Coeffs[j]
		for t := range dst {
			// Centered remainder of the dropped residue.
			rr := ring.CenteredMod(rem[t], qLast, qj)
			dst[t] = ring.MulModShoup(ring.SubMod(src[t], rr, qj), inv, invShoup, qj)
		}
	})
	r.PutScratch(work)
	r.NTT(out)
	return out
}

// Rotate rotates slots left by rot positions using the evaluator's rotation
// keys. Rotate(ct, r) places old slot j+r in new slot j.
func (ev *Evaluator) Rotate(ct *Ciphertext, rot int) *Ciphertext {
	k := ring.GaloisElementForRotation(ev.params.N(), rot)
	return ev.automorphism(ct, k)
}

// Conjugate applies complex conjugation to every slot.
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	k := ring.GaloisElementConjugate(ev.params.N())
	return ev.automorphism(ct, k)
}

func (ev *Evaluator) automorphism(ct *Ciphertext, k uint64) *Ciphertext {
	if k == 1 {
		return ct.CopyNew()
	}
	if ev.rtks == nil {
		panic("ckks: evaluator has no rotation keys")
	}
	swk, ok := ev.rtks.Keys[k]
	if !ok {
		panic(fmt.Sprintf("ckks: missing rotation key for Galois element %d", k))
	}
	r := ev.params.RingQP()
	lvl := ct.Level()
	perm := ring.AutomorphismNTTIndex(r.N, k)

	// The automorphism is fused into the keyswitch MAC as an index gather
	// (decomposition commutes with the coefficient permutation), so τ_k(c1)
	// is never materialized.
	h := ev.decomposeExt(ct.C1)
	ks0, ks1 := ev.ksFromDecomp(h, perm, swk)
	h.release(r)

	rc0 := r.NewPoly(lvl)
	r.AutomorphismNTT(ct.C0, perm, rc0)
	r.Add(rc0, ks0, rc0)
	return &Ciphertext{C0: rc0, C1: ks1, Scale: ct.Scale}
}

// hoistedDecomp holds the digit decomposition of a polynomial, every digit
// lifted to the active moduli plus the special primes and transformed to the
// NTT domain — the expensive prefix of a key switch, reusable across many
// rotations of one ciphertext (the hoisting optimization BSGS baby steps
// exploit).
type hoistedDecomp struct {
	lvl    int
	digits [][][]uint64 // [digit][row][coefficient], NTT domain; row jj lives under table extRow(jj, lvl)
}

// decomposeExt computes the hoisted decomposition of d (NTT domain): digit dd
// is d over its own active limbs, base-extended to every other row. The lift
// is the fast conversion, so a digit carries [d]_{Q_dd} + u·Q_dd with
// 0 ≤ u < α; the key's P̃_dd vanishes off the digit, so the overflow costs
// noise (a digit α times wider, against P ≥ Q_dd) and never correctness. The
// digit rows come from the ring's row pool; callers release them with
// h.release once the decomposition is consumed.
func (ev *Evaluator) decomposeExt(d *ring.Poly) *hoistedDecomp {
	r := ev.params.RingQP()
	lvl := d.Level()

	dCoeff := r.GetScratch(lvl)
	dCoeff.Copy(d)
	r.INTT(dCoeff)

	h := &hoistedDecomp{lvl: lvl, digits: make([][][]uint64, ev.params.digits(lvl))}
	for dd := range h.digits {
		lo, hi := ev.params.digit(dd, lvl)
		ev.modUp[dd][hi-lo-1].Scale(dCoeff.Coeffs[lo:hi])
		h.digits[dd] = make([][]uint64, ev.params.ExtRows(lvl))
	}
	// One task per extended row: a digit's own rows are d's, copied as they
	// are and never transformed; every other digit is converted to the row's
	// modulus, and the row's table transforms them in one ForwardBatch.
	ring.ForEachLimb(ev.params.ExtRows(lvl), func(jj int) {
		t := ev.params.extRow(jj, lvl)
		lifted := make([][]uint64, 0, len(h.digits))
		for dd := range h.digits {
			ext := r.GetRow()
			if lo, hi := ev.params.digit(dd, lvl); lo <= t && t < hi {
				copy(ext, d.Coeffs[t])
			} else {
				ev.modUp[dd][hi-lo-1].Extend(dCoeff.Coeffs[lo:hi], t, ext)
				lifted = append(lifted, ext)
			}
			//lint:allow poolleak digit rows transfer ownership to hoistedDecomp; h.release returns them to the pool
			h.digits[dd][jj] = ext
		}
		r.Tables[t].ForwardBatch(lifted)
	})
	r.PutScratch(dCoeff)
	return h
}

// release returns every digit row to the ring's row pool. The decomposition
// must not be used afterwards.
func (h *hoistedDecomp) release(r *ring.Ring) {
	for _, rows := range h.digits {
		for _, row := range rows {
			r.PutRow(row)
		}
	}
	h.digits = nil
}

// ksAccum multiply-accumulates a hoisted decomposition against a switching
// key in the extended basis, returning canonical accumulator rows from the
// ring's row pool (callers release them, typically via ModDownExt or after
// modDownP). When perm is non-nil it is an NTT-domain automorphism index
// permutation fused into the MAC (acc[t] += digit[perm[t]]·key[t]), which is
// how hoisted rotations apply τ_k to every digit without materializing the
// permuted decomposition.
func (ev *Evaluator) ksAccum(h *hoistedDecomp, perm []int, swk *SwitchingKey) (acc0, acc1 [][]uint64) {
	r := ev.params.RingQP()
	rows := ev.params.ExtRows(h.lvl)
	acc0 = make([][]uint64, rows)
	acc1 = make([][]uint64, rows)
	// Each accumulator row jj is independent: it sums every digit i over the
	// same modulus in one 128-bit accumulator per coefficient (dnum = 3
	// digits never exceed RowMACFold), reduced once to a canonical residue,
	// while rows run on parallel lanes.
	ring.ForEachLimb(rows, func(jj int) {
		tblIdx := ev.params.extRow(jj, h.lvl)
		var d, kb, ka [ring.RowMACFold][]uint64
		for i, digit := range h.digits {
			d[i], kb[i], ka[i] = digit[jj], swk.DigitsB[i].Coeffs[tblIdx], swk.DigitsA[i].Coeffs[tblIdx]
		}
		n := len(h.digits)
		a0 := r.GetRow()
		a1 := r.GetRow()
		r.Tables[tblIdx].Mod.InnerProductRows(a0, a1, d[:n], kb[:n], ka[:n], perm)
		//lint:allow poolleak accumulator rows transfer ownership to the caller, which releases them after the deferred ModDown consumes them
		acc0[jj], acc1[jj] = a0, a1
	})
	return acc0, acc1
}

// ksFromDecomp multiply-accumulates a hoisted decomposition against a
// switching key (optionally fusing an automorphism gather, see ksAccum) and
// performs the ModDown immediately — the classic single-hoisted keyswitch.
// The double-hoisted path instead keeps the ksAccum output in the extended
// basis (ExtCiphertext) and defers the ModDown across many operations.
func (ev *Evaluator) ksFromDecomp(h *hoistedDecomp, perm []int, swk *SwitchingKey) (out0, out1 *ring.Poly) {
	r := ev.params.RingQP()
	acc0, acc1 := ev.ksAccum(h, perm, swk)
	out0 = ev.modDownP(acc0, h.lvl)
	out1 = ev.modDownP(acc1, h.lvl)
	for jj := range acc0 {
		r.PutRow(acc0[jj])
		r.PutRow(acc1[jj])
	}
	return out0, out1
}

// keySwitch applies swk to the degree-1 part d (NTT domain, level l),
// returning the pair to fold into a ciphertext: (out0, out1) such that
// out0 + out1·sOut ≈ d·sIn.
//
// This is the hybrid RNS key switch: every α consecutive residues of d (α the
// number of special primes) form a digit; digits are extended to all active
// moduli plus the special primes, multiplied against the key, accumulated,
// and the result divided by P.
func (ev *Evaluator) keySwitch(d *ring.Poly, swk *SwitchingKey) (out0, out1 *ring.Poly) {
	h := ev.decomposeExt(d)
	out0, out1 = ev.ksFromDecomp(h, nil, swk)
	h.release(ev.params.RingQP())
	return out0, out1
}

// RotateHoisted rotates ct by every index in rots, decomposing the
// ciphertext once and reusing the extended digits for each rotation — the
// hoisting optimization that makes BSGS baby steps cheap. Results decrypt
// identically to per-index Rotate calls (the digit lift differs, the values
// do not).
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, rots []int) map[int]*Ciphertext {
	if ev.rtks == nil {
		panic("ckks: evaluator has no rotation keys")
	}
	r := ev.params.RingQP()
	lvl := ct.Level()
	out := make(map[int]*Ciphertext, len(rots))
	var h *hoistedDecomp
	for _, rot := range rots {
		if _, done := out[rot]; done {
			continue
		}
		k := ring.GaloisElementForRotation(ev.params.N(), rot)
		if k == 1 {
			out[rot] = ct.CopyNew()
			continue
		}
		swk, ok := ev.rtks.Keys[k]
		if !ok {
			panic(fmt.Sprintf("ckks: missing rotation key for Galois element %d", k))
		}
		if h == nil {
			h = ev.decomposeExt(ct.C1)
		}
		perm := ring.AutomorphismNTTIndex(r.N, k)
		ks0, ks1 := ev.ksFromDecomp(h, perm, swk)
		rc0 := r.NewPoly(lvl)
		r.AutomorphismNTT(ct.C0, perm, rc0)
		r.Add(rc0, ks0, rc0)
		out[rot] = &Ciphertext{C0: rc0, C1: ks1, Scale: ct.Scale}
	}
	if h != nil {
		h.release(r)
	}
	return out
}

// modDownP divides the accumulated extended polynomial by P with exact
// rounding, returning an NTT-domain polynomial at level lvl. Only the special
// rows leave the NTT domain (and are consumed): their conversion to each q_j
// is transformed back and meets acc's Q rows where they are.
func (ev *Evaluator) modDownP(acc [][]uint64, lvl int) *ring.Poly {
	r := ev.params.RingQP()
	special := acc[lvl+1:]
	ring.ForEachLimb(len(special), func(k int) {
		r.Tables[ev.params.SpecialIndex()+k].Inverse(special[k])
	})
	overflow := r.GetRow()
	ev.modDown.Digits(special, overflow)

	out := r.NewPoly(lvl)
	ring.ForEachLimb(lvl+1, func(j int) {
		ev.modDown.Remainder(special, overflow, j, out.Coeffs[j])
		r.Tables[j].Forward(out.Coeffs[j])
		ev.modDown.Finish(j, acc[j], out.Coeffs[j])
	})
	r.PutRow(overflow)
	out.IsNTT = true
	return out
}
