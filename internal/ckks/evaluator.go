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

// requireNTT panics unless every ciphertext component in polys is in the NTT
// domain, the form the residue-wise products and the rescale assume.
func requireNTT(op string, polys ...*ring.Poly) {
	for _, p := range polys {
		if !p.IsNTT {
			panic(fmt.Sprintf("ckks: %s needs NTT-domain ciphertexts", op))
		}
	}
}

// pooledRows takes n rows of the ring's row pool for a value that owns
// them: an op's result or scratch, an extended-basis accumulator or a
// hoisted decomposition. They come back as their last holder left them; a
// taker that accumulates into a row clears it first. The owner hands them
// back with Release, ReleaseExt, hoistedDecomp.release or releasePolys, or
// drops them to the collector.
func (p *Parameters) pooledRows(n int) [][]uint64 {
	//lint:allow poolleak the rows' ownership passes to the value they are taken for, whose release returns them to the pool
	return p.RingQP().GetRows(n)
}

// pooledPoly is an NTT-domain polynomial at level lvl on pooled rows.
func (p *Parameters) pooledPoly(lvl int) *ring.Poly {
	return &ring.Poly{Coeffs: p.pooledRows(lvl + 1), IsNTT: true}
}

// newCiphertext is the one constructor of every degree-1 result: an
// NTT-domain ciphertext at level lvl on pooled rows whose contents are
// undefined, so the op writes every word of them.
func (ev *Evaluator) newCiphertext(lvl int, scale float64) *Ciphertext {
	return &Ciphertext{C0: ev.params.pooledPoly(lvl), C1: ev.params.pooledPoly(lvl), Scale: scale}
}

// copyPooled is a copy of ct on pooled rows.
func (ev *Evaluator) copyPooled(ct *Ciphertext) *Ciphertext {
	out := ev.newCiphertext(ct.Level(), ct.Scale)
	out.C0.Copy(ct.C0)
	out.C1.Copy(ct.C1)
	return out
}

// Release returns each ciphertext's rows to the ring's row pool, the rows a
// level drop hid included, for the next result to reuse: the twin of
// ReleaseExt. Each must own its rows — an Evaluator result no other
// ciphertext shares them with — and must not be used afterwards. A
// ciphertext that is never released is reclaimed by the collector instead.
func (ev *Evaluator) Release(cts ...*Ciphertext) {
	for _, ct := range cts {
		ev.params.releasePolys(ct.C0, ct.C1)
	}
}

// Release2 is Release of a degree-2 ciphertext.
func (ev *Evaluator) Release2(ct *Ciphertext2) {
	ev.params.releasePolys(ct.C0, ct.C1, ct.C2)
}

// releasePolys gives every row of each polynomial back to the row pool, the
// rows a level drop hid included.
func (p *Parameters) releasePolys(polys ...*ring.Poly) {
	for _, poly := range polys {
		p.RingQP().PutRows(poly.Coeffs[:cap(poly.Coeffs)]...)
		poly.Coeffs = nil
	}
}

// Add returns a + b at the lower of the two levels. Scales must match.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in Add: %g vs %g", a.Scale, b.Scale))
	}
	r := ev.params.RingQP()
	out := ev.newCiphertext(min(a.Level(), b.Level()), a.Scale)
	r.Add(a.C0, b.C0, out.C0)
	r.Add(a.C1, b.C1, out.C1)
	return out
}

// Sub returns a - b at the lower of the two levels. Scales must match.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in Sub: %g vs %g", a.Scale, b.Scale))
	}
	r := ev.params.RingQP()
	out := ev.newCiphertext(min(a.Level(), b.Level()), a.Scale)
	r.Sub(a.C0, b.C0, out.C0)
	r.Sub(a.C1, b.C1, out.C1)
	return out
}

// Neg returns -ct (free: no level or scale cost).
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	r := ev.params.RingQP()
	out := ev.newCiphertext(ct.Level(), ct.Scale)
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
	out := ev.newCiphertext(top, ct.Scale)
	q0 := r.Moduli[0]
	src := r.GetRows(1)
	coeffs := src[0]
	for _, pair := range [][2]*ring.Poly{{ct.C0, out.C0}, {ct.C1, out.C1}} {
		copy(coeffs, pair[0].Coeffs[0])
		r.Tables[0].Inverse(coeffs)
		dst := pair[1]
		ring.ForEachLimb(top+1, func(i int) {
			qi := r.Moduli[i]
			row := dst.Coeffs[i]
			for j, c := range coeffs {
				row[j] = ring.CenteredMod(c, q0, qi)
			}
		})
		dst.IsNTT = false
		r.NTT(dst)
	}
	r.PutRows(src...)
	return out
}

// constWord returns round(|c|·scale) as a word and the sign of c. A constant
// whose scaled magnitude is not finite or does not fit 64 bits breaks the
// evaluator's contract, so it panics rather than wrap.
func constWord(c, scale float64) (k uint64, neg bool) {
	v := math.Round(math.Abs(c) * scale)
	if !(v < 1<<64) { // NaN fails every comparison
		panic(fmt.Sprintf("ckks: constant %g at scale %g does not fit a 64-bit word", c, scale))
	}
	return uint64(v), c < 0
}

// AddConst returns ct + c where c is a scalar applied to every slot. The
// constant is encoded at the ciphertext's scale, so the result keeps it.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) *Ciphertext {
	out := ev.copyPooled(ct)
	ev.AddConstAcc(c, out)
	return out
}

// AddConstAcc adds c into acc in place (acc += c): AddConst without its
// fresh rows and their copy.
func (ev *Evaluator) AddConstAcc(c float64, acc *Ciphertext) {
	r := ev.params.RingQP()
	k, neg := constWord(c, acc.Scale)
	// A constant polynomial k has NTT image k in every position.
	ring.ForEachLimb(acc.Level()+1, func(i int) {
		q := r.Moduli[i]
		kq := ring.Reduce(k, q)
		if neg {
			kq = ring.NegMod(kq, q)
		}
		row := acc.C0.Coeffs[i]
		for j, v := range row {
			row[j] = ring.AddMod(v, kq, q)
		}
	})
}

// MulPlain returns ct ⊙ pt. The result's scale is the product of scales; call
// Rescale to bring it back down.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	lvl := ct.Level()
	if pt.Level() < lvl {
		lvl = pt.Level()
	}
	r := ev.params.RingQP()
	out := ev.newCiphertext(lvl, ct.Scale*pt.Scale)
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
	k, neg := constWord(c, scale)
	outScale := ct.Scale * scale
	if c != 0 && k != 0 {
		// Track the scale actually applied by the rounded integer multiplier.
		outScale = ct.Scale * float64(k) / math.Abs(c)
	}
	out := ev.newCiphertext(ct.Level(), outScale)
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
	lvl := min(a.Level(), b.Level())
	d0, d1, d2 := ev.params.pooledPoly(lvl), ev.params.pooledPoly(lvl), ev.params.pooledPoly(lvl)
	ev.tensor(a, b, d0, d1, d2)
	e := ev.relinExt(d0, d1, d2, a.Scale*b.Scale)
	ev.params.releasePolys(d0, d1, d2)
	return ev.ModDownExt(e)
}

// tensor writes the degree-2 product of a and b over d0's rows in one pass
// per limb: d0 = a0·b0, d1 = a0·b1 + a1·b0, d2 = a1·b1, canonical.
func (ev *Evaluator) tensor(a, b *Ciphertext, d0, d1, d2 *ring.Poly) {
	requireNTT("a multiply", a.C0, a.C1, b.C0, b.C1)
	r := ev.params.RingQP()
	ring.ForEachLimb(len(d0.Coeffs), func(i int) {
		m := r.Tables[i].Mod
		a0, a1, b0, b1 := a.C0.Coeffs[i], a.C1.Coeffs[i], b.C0.Coeffs[i], b.C1.Coeffs[i]
		o0, o1, o2 := d0.Coeffs[i], d1.Coeffs[i], d2.Coeffs[i]
		for j := range o0 {
			o0[j] = m.MulModBarrett(a0[j], b0[j])
			o1[j] = ring.AddMod(m.MulModBarrett(a0[j], b1[j]), m.MulModBarrett(a1[j], b0[j]), m.Q)
			o2[j] = m.MulModBarrett(a1[j], b1[j])
		}
	})
	d0.IsNTT, d1.IsNTT, d2.IsNTT = true, true, true
}

// Rescale divides the ciphertext by its top modulus q_ℓ (rounding), dropping
// one level and dividing the scale by that modulus. Only the dropped row
// leaves the NTT domain; every kept row is finished by rescaleRow, at
// 2(ℓ+1) transforms instead of the coefficient-domain division's 2(2ℓ+1).
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	lvl := ct.Level()
	if lvl == 0 {
		panic("ckks: cannot rescale at level 0")
	}
	requireNTT("Rescale", ct.C0, ct.C1)
	r := ev.params.RingQP()
	in := [2]*ring.Poly{ct.C0, ct.C1}
	res := ev.newCiphertext(lvl-1, ct.Scale/float64(r.Moduli[lvl]))
	out := [2]*ring.Poly{res.C0, res.C1}
	// Each component's dropped row, coefficient domain, and the bare rescale's s.
	scratch := r.GetRows(3)
	rem, zero := scratch[:2], scratch[2]
	clear(zero)
	ring.ForEachLimb(2, func(c int) {
		copy(rem[c], in[c].Coeffs[lvl])
		r.Tables[lvl].Inverse(rem[c])
	})
	ring.ForEachLimb(2*lvl, func(i int) {
		c, j := i/lvl, i%lvl
		src, qj := in[c].Coeffs[j], r.Moduli[j]
		ev.rescaleRow(lvl, j, rem[c], zero, out[c].Coeffs[j], func(dst []uint64) {
			for t, v := range dst {
				dst[t] = ring.AddMod(src[t], v, qj)
			}
		})
	})
	r.PutRows(scratch...)
	return res
}

// rescaleRow is the one per-row tail of a division by q_lvl, shared by
// Rescale and ModDownExtRescale. rem is the dropped row in the coefficient
// domain; s is a canonical coefficient-domain row (zero for a bare rescale),
// which may be dst itself; add adds the row's NTT-domain part x to its
// canonical argument, canonically. dst leaves as
// (x + NTT(s − [rem]_centered))·q_lvl^-1 mod q_j, whatever it held.
// The transform is linear and returns canonical residues, so however a row is
// split into x and s this is word for word the coefficient-domain division
// (x' − [rem]_centered)·q_lvl^-1 of x' = x + NTT(s).
func (ev *Evaluator) rescaleRow(lvl, j int, rem, s, dst []uint64, add func(dst []uint64)) {
	r := ev.params.RingQP()
	qLast, qj := r.Moduli[lvl], r.Moduli[j]
	for t, v := range rem {
		dst[t] = ring.SubMod(s[t], ring.CenteredMod(v, qLast, qj), qj)
	}
	r.Tables[j].Forward(dst)
	add(dst)
	inv, invShoup := ev.params.rescaleInv[lvl][j], ev.params.rescaleInvShoup[lvl][j]
	for t, v := range dst {
		dst[t] = ring.MulModShoup(v, inv, invShoup, qj)
	}
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
		return ev.copyPooled(ct)
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

	// The automorphism is fused into the keyswitch MAC as an index gather
	// (decomposition commutes with the coefficient permutation), so τ_k(c1)
	// is never materialized.
	h := ev.decomposeExt(ct.C1)
	out := ev.newCiphertext(lvl, ct.Scale)
	ev.rotateFromDecomp(h, k, swk, ct.C0, out.C0.Coeffs, out.C1.Coeffs)
	h.release(r)
	return out
}

// rotateFromDecomp writes τ_k(c0, c1) into out0 and out1 (rows at h's
// level, their contents overwritten): the keyswitch of τ_k(c1) from its hoisted decomposition,
// divided by P, with τ_k(c0) gathered into the c0 output in place. The
// addition commutes, so this is word for word materializing τ_k(c0) and
// adding the keyswitch to it.
func (ev *Evaluator) rotateFromDecomp(h *hoistedDecomp, k uint64, swk *SwitchingKey, c0 *ring.Poly, out0, out1 [][]uint64) {
	requireNTT("a rotation", c0)
	r := ev.params.RingQP()
	ev.ksFromDecomp(h, k, swk, out0, out1)
	first, step := ring.AutomorphismNTTStep(r.N, k)
	mask := r.N - 1
	ring.ForEachLimb(len(out0), func(j int) {
		q, src, dst := r.Moduli[j], c0.Coeffs[j], out0[j]
		for t, s := 0, first; t < len(dst); t, s = t+1, (s+step)&mask {
			dst[t] = ring.AddMod(dst[t], src[s], q)
		}
	})
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

	dCoeff := ev.params.pooledPoly(lvl)
	dCoeff.Copy(d)
	r.INTT(dCoeff)

	h := &hoistedDecomp{lvl: lvl, digits: make([][][]uint64, ev.params.digits(lvl))}
	for dd := range h.digits {
		lo, hi := ev.params.digit(dd, lvl)
		ev.modUp[dd][hi-lo-1].Scale(dCoeff.Coeffs[lo:hi])
		h.digits[dd] = ev.params.pooledRows(ev.params.ExtRows(lvl))
	}
	// One task per extended row: a digit's own rows are d's, copied as they
	// are and never transformed; every other digit is converted to the row's
	// modulus, and the row's table transforms them in one ForwardBatch.
	ring.ForEachLimb(ev.params.ExtRows(lvl), func(jj int) {
		t := ev.params.extRow(jj, lvl)
		lifted := make([][]uint64, 0, len(h.digits))
		for dd := range h.digits {
			ext := h.digits[dd][jj]
			if lo, hi := ev.params.digit(dd, lvl); lo <= t && t < hi {
				copy(ext, d.Coeffs[t])
			} else {
				clear(ext)
				ev.modUp[dd][hi-lo-1].Extend(dCoeff.Coeffs[lo:hi], t, ext)
				lifted = append(lifted, ext)
			}
		}
		r.Tables[t].ForwardBatch(lifted)
	})
	ev.params.releasePolys(dCoeff)
	return h
}

// release returns every digit row to the ring's row pool. The decomposition
// must not be used afterwards.
func (h *hoistedDecomp) release(r *ring.Ring) {
	for _, rows := range h.digits {
		r.PutRows(rows...)
	}
	h.digits = nil
}

// ksAccum multiply-accumulates a hoisted decomposition against a switching
// key in the extended basis, returning canonical accumulator rows from the
// ring's row pool (callers release them, typically via ModDownExt or after
// modDownP). The Galois element k names an NTT-domain automorphism fused
// into the MAC (acc[t] += digit[perm[t]]·key[t], k = 1 the identity), which
// is how hoisted rotations apply τ_k to every digit without materializing the
// permuted decomposition.
func (ev *Evaluator) ksAccum(h *hoistedDecomp, k uint64, swk *SwitchingKey) (acc0, acc1 [][]uint64) {
	r := ev.params.RingQP()
	rows := ev.params.ExtRows(h.lvl)
	acc0, acc1 = ev.params.pooledRows(rows), ev.params.pooledRows(rows)
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
		r.Tables[tblIdx].Mod.InnerProductRows(acc0[jj], acc1[jj], d[:n], kb[:n], ka[:n], k)
	})
	return acc0, acc1
}

// ksFromDecomp multiply-accumulates a hoisted decomposition against a
// switching key (optionally fusing an automorphism gather, see ksAccum) and
// performs the ModDown immediately into out0 and out1 (rows at h's level,
// their contents overwritten) — the classic single-hoisted keyswitch. The double-hoisted path
// instead keeps the ksAccum output in the extended basis (ExtCiphertext) and
// defers the ModDown across many operations.
func (ev *Evaluator) ksFromDecomp(h *hoistedDecomp, k uint64, swk *SwitchingKey, out0, out1 [][]uint64) {
	r := ev.params.RingQP()
	acc0, acc1 := ev.ksAccum(h, k, swk)
	ev.modDownP(acc0, acc1, h.lvl, false, out0, out1)
	r.PutRows(acc0...)
	r.PutRows(acc1...)
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
	out := make(map[int]*Ciphertext, len(rots))
	var h *hoistedDecomp
	for _, rot := range rots {
		if _, done := out[rot]; done {
			continue
		}
		k := ring.GaloisElementForRotation(ev.params.N(), rot)
		if k == 1 {
			out[rot] = ev.copyPooled(ct)
			continue
		}
		swk, ok := ev.rtks.Keys[k]
		if !ok {
			panic(fmt.Sprintf("ckks: missing rotation key for Galois element %d", k))
		}
		if h == nil {
			h = ev.decomposeExt(ct.C1)
		}
		res := ev.newCiphertext(ct.Level(), ct.Scale)
		ev.rotateFromDecomp(h, k, swk, ct.C0, res.C0.Coeffs, res.C1.Coeffs)
		out[rot] = res
	}
	if h != nil {
		h.release(r)
	}
	return out
}

// modDownP divides both components of an extended keyswitch accumulator by P
// with exact rounding, writing NTT-domain rows at level lvl over out0 and
// out1 (lvl+1 rows each, their contents overwritten); with rescale set it
// divides by P·q_lvl and writes them at level lvl−1 (lvl rows each). Only the
// special rows leave the NTT domain (and are consumed), and with rescale the
// row it drops: their conversion to each kept q_j is transformed back and
// meets the Q rows where they are. The dropped row's coefficient-domain value
// is Remainder_lvl + acc_lvl·P^-1, what inverse-transforming that row of the
// division by P alone gives, the transform being linear; so with rescale the
// result is Rescale of the result without, word for word, at 2(lvl+1) fewer
// transforms. Each phase fans out over both components at once.
func (ev *Evaluator) modDownP(acc0, acc1 [][]uint64, lvl int, rescale bool, out0, out1 [][]uint64) {
	r := ev.params.RingQP()
	acc := [2][][]uint64{acc0, acc1}
	special := [2][][]uint64{acc0[lvl+1:], acc1[lvl+1:]}
	alpha := len(special[0])
	inv, rows := alpha, lvl+1 // rows to inverse-transform, rows kept
	if rescale {
		inv, rows = alpha+1, lvl
	}
	ring.ForEachLimb(2*inv, func(i int) {
		c, k := i/inv, i%inv
		if k == alpha {
			r.Tables[lvl].Inverse(acc[c][lvl])
		} else {
			r.Tables[ev.params.SpecialIndex()+k].Inverse(special[c][k])
		}
	})
	n := 2 // per component, the overflow counts and, with rescale, the dropped row
	if rescale {
		n = 4
	}
	scratch := r.GetRows(n)
	overflow, dropped := scratch[:2], scratch[2:]
	ring.ForEachLimb(2, func(c int) {
		ev.modDown.Digits(special[c], overflow[c])
		if rescale {
			ev.modDown.Remainder(special[c], overflow[c], lvl, dropped[c])
			ev.modDown.Finish(lvl, acc[c][lvl], dropped[c])
		}
	})

	out := [2][][]uint64{out0, out1}
	ring.ForEachLimb(2*rows, func(i int) {
		c, j := i/rows, i%rows
		dst := out[c][j]
		ev.modDown.Remainder(special[c], overflow[c], j, dst)
		if !rescale {
			r.Tables[j].Forward(dst)
			ev.modDown.Finish(j, acc[c][j], dst)
			return
		}
		ring.ReduceFinalVec(dst, r.Moduli[j])
		ev.rescaleRow(lvl, j, dropped[c], dst, dst, func(dst []uint64) { ev.modDown.Finish(j, acc[c][j], dst) })
	})
	r.PutRows(scratch...)
}
