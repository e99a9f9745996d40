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
type ExtCiphertext struct {
	Lvl    int
	C0, C1 [][]uint64
	Scale  float64
}

// NewExtAccumulator returns a zeroed extended-basis accumulator at level lvl
// with the given scale, backed by pooled rows.
func (ev *Evaluator) NewExtAccumulator(lvl int, scale float64) *ExtCiphertext {
	r := ev.params.RingQP()
	n := ev.params.ExtRows(lvl)
	c0 := make([][]uint64, n)
	c1 := make([][]uint64, n)
	for jj := 0; jj < n; jj++ {
		row0, row1 := r.GetRow(), r.GetRow()
		//lint:allow poolleak accumulator rows transfer ownership to the ExtCiphertext; ModDownExt/ReleaseExt return them to the pool
		c0[jj], c1[jj] = row0, row1
	}
	return &ExtCiphertext{Lvl: lvl, C0: c0, C1: c1, Scale: scale}
}

// ReleaseExt returns the accumulator's rows to the ring's row pool. The
// accumulator must not be used afterwards. ModDownExt releases implicitly;
// call this only when an extended ciphertext is discarded without folding.
func (ev *Evaluator) ReleaseExt(e *ExtCiphertext) {
	r := ev.params.RingQP()
	for jj := range e.C0 {
		r.PutRow(e.C0[jj])
		r.PutRow(e.C1[jj])
	}
	e.C0, e.C1 = nil, nil
}

// liftExt lifts ct into the extended basis by multiplying both components by
// P over the active moduli (the residues mod the special primes are P·c ≡ 0,
// so those rows stay zero). The result is the identity-rotation element of
// RotateHoistedExt: ModDownExt(liftExt(ct)) decrypts exactly as ct.
func (ev *Evaluator) liftExt(ct *Ciphertext) *ExtCiphertext {
	r := ev.params.RingQP()
	lvl := ct.Level()
	e := ev.NewExtAccumulator(lvl, ct.Scale)
	ring.ForEachLimb(lvl+1, func(j int) {
		m := r.Tables[j].Mod
		m.MulAddShoupRowLazy(e.C0[j], ct.C0.Coeffs[j], ev.params.pModQ[j], ev.params.pModQShoup[j])
		m.MulAddShoupRowLazy(e.C1[j], ct.C1.Coeffs[j], ev.params.pModQ[j], ev.params.pModQShoup[j])
	})
	return e
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
		perm := ring.AutomorphismNTTIndex(r.N, k)
		acc0, acc1 := ev.ksAccum(h, perm, swk)
		// Fold P·τ_k(c0) into the Q rows of the c0 accumulator (its P-row
		// contribution is zero), fusing the output automorphism into the
		// same gather form as the keyswitch MAC.
		ring.ForEachLimb(lvl+1, func(j int) {
			m := r.Tables[j].Mod
			m.MulAddShoupRowLazyGather(acc0[j], ct.C0.Coeffs[j], ev.params.pModQ[j], ev.params.pModQShoup[j], perm)
		})
		out[rot] = &ExtCiphertext{Lvl: lvl, C0: acc0, C1: acc1, Scale: ct.Scale}
	}
	if h != nil {
		h.release(r)
	}
	return out
}

// RotateExt is the single-rotation form of RotateHoistedExt.
func (ev *Evaluator) RotateExt(ct *Ciphertext, rot int) *ExtCiphertext {
	return ev.RotateHoistedExt(ct, []int{rot})[rot]
}

// MulPlainExtAcc folds a whole sequence of (x, pt) products into acc in one
// pass over the extended basis: acc += Σ xs[ti] ⊙ pts[ti] row-wise, special
// rows included, with every row staying lazy in [0, 2q). Per accumulator row,
// every term of the sequence streams through while that row stays resident —
// a BSGS giant step folds all its diagonals in one sweep of the accumulator
// instead of re-walking it per diagonal. Every x must sit at acc's level,
// every pt must be encoded at that level or above, and acc's scale must
// already equal x.Scale·pt.Scale for every pair. The rows are congruent to
// accumulating the pairs one call at a time, and bit-identical to it once
// ModDownExt's sweep makes them canonical.
func (ev *Evaluator) MulPlainExtAcc(xs []*ExtCiphertext, pts []*ExtPlaintext, acc *ExtCiphertext) {
	if len(xs) != len(pts) {
		panic("ckks: MulPlainExtAcc length mismatch")
	}
	for ti, x := range xs {
		if x.Lvl != acc.Lvl {
			panic(fmt.Sprintf("ckks: level mismatch in MulPlainExtAcc: %d vs %d", x.Lvl, acc.Lvl))
		}
		if pts[ti].Lvl < x.Lvl {
			panic(fmt.Sprintf("ckks: plaintext level %d below ciphertext level %d in MulPlainExtAcc", pts[ti].Lvl, x.Lvl))
		}
		if !sameScale(acc.Scale, x.Scale*pts[ti].Scale) {
			panic(fmt.Sprintf("ckks: scale mismatch in MulPlainExtAcc: %g vs %g", acc.Scale, x.Scale*pts[ti].Scale))
		}
	}
	r := ev.params.RingQP()
	ring.ForEachLimb(ev.params.ExtRows(acc.Lvl), func(jj int) {
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
// Q-basis ciphertext. The extended ciphertext is consumed (its rows return
// to the pool).
func (ev *Evaluator) ModDownExt(e *ExtCiphertext) *Ciphertext {
	r := ev.params.RingQP()
	ring.ForEachLimb(ev.params.ExtRows(e.Lvl), func(jj int) {
		q := r.Moduli[ev.params.extRow(jj, e.Lvl)]
		ring.ReduceFinalVec(e.C0[jj], q)
		ring.ReduceFinalVec(e.C1[jj], q)
	})
	c0 := ev.modDownP(e.C0, e.Lvl)
	c1 := ev.modDownP(e.C1, e.Lvl)
	ct := &Ciphertext{C0: c0, C1: c1, Scale: e.Scale}
	ev.ReleaseExt(e)
	return ct
}
