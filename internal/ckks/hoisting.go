package ckks

import (
	"fmt"

	"hydra/internal/ring"
)

// ExtCiphertext is a degree-1 ciphertext held in the extended basis Q_l·P —
// the double-hoisting accumulator. Its components carry P times the
// underlying Q-basis ciphertext (the keyswitch inner product naturally
// produces P·m + e, and fresh ciphertexts are lifted by multiplying with P),
// so decryption is defined only after ModDownExt divides by P. Rows are
// NTT-domain lazy residues in [0, 2q): MulPlainExtAcc and AddExtAcc keep the
// window open and ModDownExt closes it with one ReduceFinalVec sweep per row.
//
// The point of the type is ModDown deferral: a BSGS giant step folds many
// rotated-and-scaled terms with row adds in this basis and pays a single
// ModDown for the whole group, where the single-hoisted path pays one per
// rotation.
//
// Rows come from the ring's row pool; ModDownExt (or ReleaseExt) returns
// them. Scale tracks the logical message scale — the P factor is implicit.
//
// An ExtCiphertext that carries only its Lvl+1 Q rows is closed: P is already
// divided out (RotateHoistedClosed), so it is the Q-basis ciphertext itself
// in pooled rows. MulPlainExtAcc folds closed operands against Q-row
// plaintexts into a closed accumulator (NewClosedAccumulator), and ModDownExt
// closes that with the reduction sweep alone — the form for a fold whose
// plaintexts are encoded per call, where α special rows per diagonal cost
// more than one ModDown per rotation.
type ExtCiphertext struct {
	Lvl    int
	C0, C1 [][]uint64
	Scale  float64
}

// closed reports that e carries its Q rows only.
func (e *ExtCiphertext) closed() bool { return len(e.C0) == e.Lvl+1 }

// NewExtAccumulator returns a zeroed extended-basis accumulator at level lvl
// with the given scale, backed by pooled rows.
func (ev *Evaluator) NewExtAccumulator(lvl int, scale float64) *ExtCiphertext {
	return ev.newPooledExt(lvl, ev.params.ExtRows(lvl), scale)
}

// NewClosedAccumulator returns a zeroed closed accumulator at level lvl, its
// Q rows alone, backed by pooled rows.
func (ev *Evaluator) NewClosedAccumulator(lvl int, scale float64) *ExtCiphertext {
	return ev.newPooledExt(lvl, lvl+1, scale)
}

func (ev *Evaluator) newPooledExt(lvl, rows int, scale float64) *ExtCiphertext {
	c0, c1 := ev.params.pooledRows(rows), ev.params.pooledRows(rows)
	for jj := range c0 {
		clear(c0[jj])
		clear(c1[jj])
	}
	return &ExtCiphertext{Lvl: lvl, C0: c0, C1: c1, Scale: scale}
}

// ReleaseExt returns the accumulator's rows to the ring's row pool. The
// accumulator must not be used afterwards. ModDownExt releases implicitly;
// call this only when an extended ciphertext is discarded without folding.
func (ev *Evaluator) ReleaseExt(e *ExtCiphertext) {
	r := ev.params.RingQP()
	r.PutRows(e.C0...)
	r.PutRows(e.C1...)
	e.C0, e.C1 = nil, nil
}

// liftExt lifts ct into the extended basis by multiplying both components by
// P over the active moduli (the residues mod the special primes are P·c ≡ 0,
// so those rows stay zero). The result is the identity-rotation element of
// RotateHoistedExt: ModDownExt(liftExt(ct)) decrypts exactly as ct.
func (ev *Evaluator) liftExt(ct *Ciphertext) *ExtCiphertext {
	e := ev.NewExtAccumulator(ct.Level(), ct.Scale)
	ev.addLifted(e, ct.C0, ct.C1)
	return e
}

// addLifted adds P·c0 and P·c1 into e's Q rows, lazy in [0, 2q); their
// special-prime residues are zero, so the special rows — and with them every
// later ModDown's rounding — are unchanged: ModDownExt(e) + (c0, c1) equals
// ModDownExt of the result word for word.
func (ev *Evaluator) addLifted(e *ExtCiphertext, c0, c1 *ring.Poly) {
	r := ev.params.RingQP()
	ring.ForEachLimb(e.Lvl+1, func(j int) {
		m := r.Tables[j].Mod
		m.MulAddShoupRowLazy(e.C0[j], c0.Coeffs[j], ev.params.pModQ[j], ev.params.pModQShoup[j])
		m.MulAddShoupRowLazy(e.C1[j], c1.Coeffs[j], ev.params.pModQ[j], ev.params.pModQShoup[j])
	})
}

// RotateHoistedExt rotates ct by every index in rots, decomposing the
// ciphertext once and leaving every result in the extended basis with its
// ModDown deferred — the double-hoisting optimization. The caller folds the
// results (MulPlainExtAcc / AddExtAcc) and pays one ModDownExt for the whole
// group instead of one ModDown pair per rotation.
func (ev *Evaluator) RotateHoistedExt(ct *Ciphertext, rots []int) map[int]*ExtCiphertext {
	r := ev.params.RingQP()
	lvl := ct.Level()
	out := make(map[int]*ExtCiphertext, len(rots))
	var h *hoistedDecomp
	for _, rot := range rots {
		if _, done := out[rot]; done {
			continue
		}
		k := ring.GaloisElementForRotation(ev.params.N(), rot)
		if k == 1 {
			out[rot] = ev.liftExt(ct)
			continue
		}
		if ev.rtks == nil {
			panic("ckks: evaluator has no rotation keys")
		}
		swk, ok := ev.rtks.Keys[k]
		if !ok {
			panic(fmt.Sprintf("ckks: missing rotation key for Galois element %d", k))
		}
		if h == nil {
			h = ev.decomposeExt(ct.C1)
		}
		acc0, acc1 := ev.ksAccum(h, k, swk)
		// Fold P·τ_k(c0) into the Q rows of the c0 accumulator (its P-row
		// contribution is zero), fusing the output automorphism into the
		// same gather form as the keyswitch MAC.
		ring.ForEachLimb(lvl+1, func(j int) {
			m := r.Tables[j].Mod
			m.MulAddShoupRowLazyGather(acc0[j], ct.C0.Coeffs[j], ev.params.pModQ[j], ev.params.pModQShoup[j], k)
		})
		out[rot] = &ExtCiphertext{Lvl: lvl, C0: acc0, C1: acc1, Scale: ct.Scale}
	}
	if h != nil {
		h.release(r)
	}
	return out
}

// RotateHoistedClosed is RotateHoisted held closed: every rotation's
// ModDown is paid at once and its result's pooled rows held as a closed
// ExtCiphertext, Rotate(ct, rot) word for word, for a fold that multiplies
// over the Q rows alone. The identity is a copy of ct. Callers return the
// rows with ReleaseExt.
func (ev *Evaluator) RotateHoistedClosed(ct *Ciphertext, rots []int) map[int]*ExtCiphertext {
	out := make(map[int]*ExtCiphertext, len(rots))
	for rot, res := range ev.RotateHoisted(ct, rots) {
		out[rot] = &ExtCiphertext{Lvl: res.Level(), C0: res.C0.Coeffs, C1: res.C1.Coeffs, Scale: res.Scale}
	}
	return out
}

// RotateExt is the single-rotation form of RotateHoistedExt.
func (ev *Evaluator) RotateExt(ct *Ciphertext, rot int) *ExtCiphertext {
	return ev.RotateHoistedExt(ct, []int{rot})[rot]
}

// MulPlainExtAcc folds a whole sequence of (x, pt) products into acc in one
// pass over the rows acc carries: acc += Σ xs[ti] ⊙ pts[ti] row-wise —
// special rows included for an extended accumulator, the Q rows alone for a
// closed one — with every row staying lazy in [0, 2q). Per accumulator row,
// every term of the sequence streams through while that row stays resident —
// a BSGS giant step folds all its diagonals in one sweep of the accumulator
// instead of re-walking it per diagonal. Every x must sit at acc's level in
// acc's basis, every pt must be encoded at that level or above over at least
// acc's rows, and acc's scale must already equal x.Scale·pt.Scale for every
// pair. The rows are congruent to accumulating the pairs one call at a time,
// and bit-identical to it once ModDownExt's sweep makes them canonical.
func (ev *Evaluator) MulPlainExtAcc(xs []*ExtCiphertext, pts []*ExtPlaintext, acc *ExtCiphertext) {
	if len(xs) != len(pts) {
		panic("ckks: MulPlainExtAcc length mismatch")
	}
	for ti, x := range xs {
		if x.Lvl != acc.Lvl || len(x.C0) != len(acc.C0) {
			panic(fmt.Sprintf("ckks: basis mismatch in MulPlainExtAcc: level %d, %d rows vs level %d, %d rows", x.Lvl, len(x.C0), acc.Lvl, len(acc.C0)))
		}
		if pts[ti].Lvl < x.Lvl {
			panic(fmt.Sprintf("ckks: plaintext level %d below ciphertext level %d in MulPlainExtAcc", pts[ti].Lvl, x.Lvl))
		}
		if !acc.closed() && len(pts[ti].Rows) == pts[ti].Lvl+1 {
			panic("ckks: a Q-row plaintext cannot meet an extended accumulator in MulPlainExtAcc")
		}
		if !sameScale(acc.Scale, x.Scale*pts[ti].Scale) {
			panic(fmt.Sprintf("ckks: scale mismatch in MulPlainExtAcc: %g vs %g", acc.Scale, x.Scale*pts[ti].Scale))
		}
	}
	r := ev.params.RingQP()
	ring.ForEachLimb(len(acc.C0), func(jj int) {
		m := r.Tables[ev.params.extRow(jj, acc.Lvl)].Mod
		// Lazy x rows (< 2q) times canonical pt rows (< q), RowMACFold terms
		// per 128-bit sum: one reduction per coefficient per chunk.
		var x0, x1, p [ring.RowMACFold][]uint64
		for lo := 0; lo < len(xs); lo += ring.RowMACFold {
			n := min(ring.RowMACFold, len(xs)-lo)
			for t, x := range xs[lo : lo+n] {
				x0[t], x1[t], p[t] = x.C0[jj], x.C1[jj], pts[lo+t].row(jj, acc.Lvl)
			}
			m.MulAddRowsLazy(acc.C0[jj], acc.C1[jj], x0[:n], x1[:n], p[:n])
		}
	})
}

// AddExtAcc adds x into acc in place over the extended basis (acc += x),
// both staying lazy in [0, 2q). Levels and scales must match.
func (ev *Evaluator) AddExtAcc(x *ExtCiphertext, acc *ExtCiphertext) {
	if x.Lvl != acc.Lvl {
		panic(fmt.Sprintf("ckks: level mismatch in AddExtAcc: %d vs %d", x.Lvl, acc.Lvl))
	}
	if !sameScale(acc.Scale, x.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch in AddExtAcc: %g vs %g", acc.Scale, x.Scale))
	}
	r := ev.params.RingQP()
	ring.ForEachLimb(ev.params.ExtRows(x.Lvl), func(jj int) {
		m := r.Tables[ev.params.extRow(jj, x.Lvl)].Mod
		m.AddRowLazy(acc.C0[jj], x.C0[jj])
		m.AddRowLazy(acc.C1[jj], x.C1[jj])
	})
}

// ModDownExt closes the deferred-ModDown window: it sweeps every row back to
// canonical residues, divides both components by P, and returns the ordinary
// Q-basis ciphertext. A closed accumulator has no P to divide: the sweep
// alone closes it, and its rows become the result's. The extended ciphertext
// is consumed (its rows return to the pool, or pass to the result).
func (ev *Evaluator) ModDownExt(e *ExtCiphertext) *Ciphertext {
	return ev.closeExt(e, false)
}

// ModDownExtRescale closes the window and drops the top level in the same
// pass, dividing by P·q_ℓ: Rescale(ModDownExt(e)) word for word, without
// transforming the kept rows twice. e is consumed and must not be closed: a
// closed accumulator has no ModDown for the rescale to ride.
func (ev *Evaluator) ModDownExtRescale(e *ExtCiphertext) *Ciphertext {
	if e.Lvl == 0 {
		panic("ckks: cannot rescale at level 0")
	}
	if e.closed() {
		panic("ckks: ModDownExtRescale of a closed accumulator")
	}
	return ev.closeExt(e, true)
}

func (ev *Evaluator) closeExt(e *ExtCiphertext, rescale bool) *Ciphertext {
	r := ev.params.RingQP()
	ring.ForEachLimb(len(e.C0), func(jj int) {
		q := r.Moduli[ev.params.extRow(jj, e.Lvl)]
		ring.ReduceFinalVec(e.C0[jj], q)
		ring.ReduceFinalVec(e.C1[jj], q)
	})
	if e.closed() {
		// The rows are the result's: they pass to it uncopied.
		ct := &Ciphertext{C0: &ring.Poly{Coeffs: e.C0, IsNTT: true}, C1: &ring.Poly{Coeffs: e.C1, IsNTT: true}, Scale: e.Scale}
		e.C0, e.C1 = nil, nil
		return ct
	}
	lvl := e.Lvl
	if rescale {
		lvl--
	}
	ct := ev.newCiphertext(lvl, e.Scale)
	ev.modDownP(e.C0, e.C1, e.Lvl, rescale, ct.C0.Coeffs, ct.C1.Coeffs)
	if rescale {
		ct.Scale /= float64(r.Moduli[e.Lvl])
	}
	ev.ReleaseExt(e)
	return ct
}
