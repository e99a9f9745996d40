// Package ring is a miniature stub of the real internal/ring, giving the
// golden tests realistic targets: the scratch-pool API, the bounded fan-out
// helpers, and a modular helper. Raw uint64 arithmetic is legal here (ring
// is the sanctioned zone), while float arithmetic and raw go statements are
// not.
package ring

// Poly mimics the RNS polynomial.
type Poly struct {
	Coeffs [][]uint64
}

// Ring mimics the pooled ring.
type Ring struct {
	N int
}

func (r *Ring) GetScratch(level int) *Poly {
	return &Poly{Coeffs: make([][]uint64, level+1)}
}

func (r *Ring) PutScratch(p *Poly) {}

func (r *Ring) GetRow() []uint64 { return make([]uint64, r.N) }

func (r *Ring) PutRow(row []uint64) {}

// ForEachLimb mimics the bounded pool's fan-out entry point.
func ForEachLimb(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// RunTasks mimics the coarse-grained sibling.
func RunTasks(fns ...func()) {
	for _, fn := range fns {
		fn()
	}
}

// MulAddRowLazy mimics the row-wide key MAC: the accumulator row stays lazy
// in [0, 2q).
func MulAddRowLazy(acc, a, b []uint64) {}

// MulAddRowsLazy mimics the wide-accumulator diagonal fold: both accumulator
// rows stay lazy in [0, 2q).
func MulAddRowsLazy(acc0, acc1 []uint64, x0, x1, p [][]uint64) {}

// InnerProductRows mimics the keyswitch digit inner product: it writes
// canonical [0, q) output rows.
func InnerProductRows(out0, out1 []uint64, d, k0, k1 [][]uint64, perm []int) {}

// ForwardBatch mimics the batched NTT entry point: like Forward, it accepts
// lazy input and folds the canonicalizing sweep into its last pass.
func ForwardBatch(rows [][]uint64) {}

// AddMod uses raw uint64 arithmetic — inside internal/ring that is the
// point, so rawmod must stay silent here.
func AddMod(a, b, q uint64) uint64 {
	c := a + b
	if c >= q {
		c -= q
	}
	return c
}

// ReduceFinal mimics the canonicalizing sweep of the lazy family.
func ReduceFinal(a, q uint64) uint64 {
	if a >= q {
		a -= q
	}
	return a
}

// ReduceFinalVec mimics the row-wide sweep.
func ReduceFinalVec(a []uint64, q uint64) {
	for i, v := range a {
		if v >= q {
			a[i] = v - q
		}
	}
}

// Reduce mimics the full Barrett reduction: any window in, canonical out.
func Reduce(a, q uint64) uint64 {
	return a % q
}

// AddModLazy mimics the lazy adder: result in [0, twoQ).
func AddModLazy(a, b, twoQ uint64) uint64 {
	c := a + b
	if c >= twoQ {
		c -= twoQ
	}
	return c
}

// MulModShoupLazy mimics the lazy Shoup multiplier: result in [0, 2q).
func MulModShoupLazy(a, w, wShoup, q uint64) uint64 {
	return a*w - (a*wShoup>>1)*q // stub arithmetic; bounds are not the point here
}

// floatexact: a true positive...
func badScale(x float64) float64 {
	return x * 1.5 // want floatexact
}

// ...and a suppressed case.
func okScale(sigma float64) float64 {
	//lint:allow floatexact testdata: noise bound computed in floats before rounding
	return 6 * sigma
}

// rawgo: a true positive...
func badSpawn(fn func()) {
	go fn() // want rawgo
}

// ...and a suppressed case.
func okSpawn(fn func()) {
	//lint:allow rawgo testdata: models the pool's own slot-gated spawn site
	go fn()
}
