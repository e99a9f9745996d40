// Package ckks exercises the rawmod and poolleak checks from outside the
// sanctioned ring zone.
package ckks

import "hydra/internal/ring"

// rawmod: true positives on +, -=, and %.
func badAdd(a, b, q uint64) uint64 {
	c := a + b // want rawmod
	if c >= q {
		c -= q // want rawmod
	}
	return c
}

func badRem(p, q uint64) uint64 {
	return p % q // want rawmod
}

// rawmod: the sanctioned route stays silent.
func okAdd(a, b, q uint64) uint64 {
	return ring.AddMod(a, b, q)
}

// rawmod: int arithmetic is not coefficient arithmetic.
func okIndex(i, n int) int {
	return i*n + 1
}

// rawmod: constant folding is not runtime coefficient math.
const twoQ = uint64(7) * 2

// rawmod: a suppressed case.
func okScalarSetup(p, q uint64) uint64 {
	//lint:allow rawmod testdata: scalar setup reduction kept raw intentionally
	return p % q
}

// lazydomain: a lazy product flows straight into a canonical-input consumer
// with no closing sweep.
func badLazyFlow(a, w, ws, q uint64) uint64 {
	return ring.AddMod(ring.MulModShoupLazy(a, w, ws, q), 0, q) // want lazydomain
}

// lazydomain: same escape through a variable.
func badLazyVar(a, w, ws, q uint64) uint64 {
	vLazy := ring.MulModShoupLazy(a, w, ws, q)
	return ring.AddMod(vLazy, 0, q) // want lazydomain
}

// lazydomain: canonicalizing through ReduceFinal before the consumer is the
// sanctioned shape.
func okLazySwept(a, w, ws, q uint64) uint64 {
	v := ring.ReduceFinal(ring.MulModShoupLazy(a, w, ws, q), q)
	return ring.AddMod(v, 0, q)
}

// lazydomain: a row-wide window closed by ReduceFinalVec sanctions the reads
// after it.
func okLazyWindow(row []uint64, w, ws, q uint64) uint64 {
	for i := range row {
		row[i] = ring.MulModShoupLazy(row[i], w, ws, q)
	}
	ring.ReduceFinalVec(row, q)
	return ring.AddMod(row[0], 0, q)
}

// lazydomain: a suppressed case — the consumer documents tolerance for lazy
// inputs.
func okLazyAllowed(a, w, ws, q uint64) uint64 {
	//lint:allow lazydomain testdata: consumer tolerates [0,2q) inputs by contract
	return ring.AddMod(ring.MulModShoupLazy(a, w, ws, q), 0, q)
}

// lazydomain: a sweep on one path does not sanction the other.
func badLazyBranch(a, w, ws, q uint64, fix bool) uint64 {
	v := ring.MulModShoupLazy(a, w, ws, q)
	if fix {
		v = ring.ReduceFinal(v, q)
	}
	return ring.AddMod(v, 0, q) // want lazydomain
}

// lazydomain: the full Barrett reduction closes the window too.
func okLazyReduced(a, b, q uint64) uint64 {
	return ring.AddMod(ring.Reduce(ring.AddModLazy(a, b, twoQ), q), 0, q)
}

// lazydomain: the row MAC leaves its accumulator row lazy — reading it back
// into a canonical consumer without the closing sweep escapes the window.
func badRowMAC(acc, x, key []uint64, q uint64) uint64 {
	ring.MulAddRowLazy(acc, x, key)
	return ring.AddMod(acc[0], 0, q) // want lazydomain
}

// The sanctioned shape: rows fold on the limb fan-out and each accumulator
// row is swept inside the closure body. ForEachLimb closures execute before
// the call returns, so the sweep's effect is real, not maybe-run.
func okRowMACSwept(accs, xs [][]uint64, key []uint64, q uint64) uint64 {
	ring.ForEachLimb(len(accs), func(i int) {
		ring.MulAddRowLazy(accs[i], xs[i], key)
		ring.ReduceFinalVec(accs[i], q)
	})
	return ring.AddMod(accs[0][0], 0, q)
}

// Feeding the row MAC's output rows to the batched transform also closes the
// window: ForwardBatch folds the sweep into its last pass like the scalar NTT
// entries.
func okRowMACForwardBatch(rows, xs [][]uint64, key []uint64, q uint64) uint64 {
	ring.MulAddRowLazy(rows[0], xs[0], key)
	ring.ForwardBatch(rows)
	return ring.AddMod(rows[0][0], 0, q)
}

// lazydomain: the wide diagonal fold is a lazy row kernel — its accumulator
// is [0, 2q) until swept...
func badWideFold(acc [2][]uint64, x0, x1, p [][]uint64, q uint64) uint64 {
	ring.MulAddRowsLazy(acc[0], acc[1], x0, x1, p)
	return ring.AddMod(acc[1][0], 0, q) // want lazydomain
}

// ...while the keyswitch inner product reduces to canonical rows, which any
// consumer may read directly.
func okKeyMAC(out0, out1 []uint64, d, k0, k1 [][]uint64, q uint64) uint64 {
	ring.InnerProductRows(out0, out1, d, k0, k1, nil)
	return ring.AddMod(out0[0], 0, q)
}

// consumeCanon's summary marks its parameter canonical-expecting: the value
// flows into ring.AddMod unswept.
func consumeCanon(v, q uint64) uint64 {
	return ring.AddMod(v, 0, q)
}

// consumeSwept tolerates lazy input: it sweeps before consuming.
func consumeSwept(v, q uint64) uint64 {
	return ring.AddMod(ring.ReduceFinal(v, q), 0, q)
}

// lazydomain: interprocedural — the lazy value crosses a call boundary into
// a helper whose summary demands canonical input.
func badLazyInterproc(a, w, ws, q uint64) uint64 {
	return consumeCanon(ring.MulModShoupLazy(a, w, ws, q), q) // want lazydomain
}

// The tolerant helper sanctions the same flow.
func okLazyInterproc(a, w, ws, q uint64) uint64 {
	return consumeSwept(ring.MulModShoupLazy(a, w, ws, q), q)
}

type holder struct {
	rows [][]uint64
}

// poolleak: stored into a struct field.
func badStore(r *ring.Ring, h *holder) {
	rows := r.GetRows(1)
	h.rows = rows // want poolleak
}

// poolleak: returned to the caller.
func badReturn(r *ring.Ring) [][]uint64 {
	rows := r.GetRows(2)
	return rows // want poolleak
}

// poolleak: returned directly without ever being releasable.
func badReturnDirect(r *ring.Ring) [][]uint64 {
	return r.GetRows(1) // want poolleak
}

// poolleak: acquired but never released.
func badNeverReleased(r *ring.Ring) {
	rows := r.GetRows(2) // want poolleak
	rows[0] = nil
}

// poolleak + rawgo: captured by a goroutine that outlives the window.
func badGoroutine(r *ring.Ring) {
	rows := r.GetRows(1)
	go func() { // want poolleak rawgo
		rows[0][0] = 1
	}()
	r.PutRows(rows...)
}

// poolleak: the bounded pool's own closures are inside the window.
func okPooledFanout(r *ring.Ring) {
	rows := r.GetRows(3)
	ring.ForEachLimb(len(rows), func(i int) {
		rows[i][0] = 0
	})
	r.PutRows(rows...)
}

// poolleak: a suppressed ownership hand-off.
func okHandoff(r *ring.Ring, h *holder) {
	rows := r.GetRows(1)
	//lint:allow poolleak testdata: ownership transfers to holder, whose owner releases it
	h.rows = rows
}

// extAcc mirrors the evaluator's hoisted decomposition: pooled rows are
// parked in a slice field until a deferred ModDown consumes them.
type extAcc struct {
	digits [][][]uint64
}

func (e *extAcc) release(r *ring.Ring) {
	for _, rows := range e.digits {
		r.PutRows(rows...)
	}
	e.digits = nil
}

// poolleak: parking pooled rows in a slice element without documenting the
// hand-off is an escape — the deferred-ModDown window is invisible here.
func badExtAccStore(r *ring.Ring, e *extAcc, dd int) {
	rows := r.GetRows(2)
	e.digits[dd] = rows // want poolleak
}

// poolleak: the sanctioned ext-accumulator shape — the store transfers
// ownership to the accumulator, whose release method returns every row.
func okExtAccTransfer(r *ring.Ring, n int) *extAcc {
	e := &extAcc{digits: make([][][]uint64, n)}
	for dd := 0; dd < n; dd++ {
		rows := r.GetRows(2)
		//lint:allow poolleak testdata: accumulator rows transfer ownership; release returns them after the deferred ModDown
		e.digits[dd] = rows
	}
	return e
}

// poolleak: rows taken in a loop and never given back.
func badRowsNeverReleasedInLoop(r *ring.Ring, n int) {
	for range n {
		rows := r.GetRows(2) // want poolleak
		rows[0] = nil
	}
}

// poolleak: the sanctioned result-row shape — one helper takes every pooled
// row a result owns, its hand-off documented once.
func okPooledRows(r *ring.Ring, n int) [][]uint64 {
	//lint:allow poolleak testdata: the rows' ownership passes to the result they are taken for
	return r.GetRows(n)
}
