package hefloat

import (
	"fmt"
	"math"
	"math/cmplx"

	"hydra/internal/ckks"
	"hydra/internal/ring"
)

// BootstrapDesc describes the bootstrap pipeline after ModRaise as plain
// data — what to compute, not how: the Bootstrapper executes it on an
// evaluator through cached plans, fhir's Bootstrap frontend writes it as an
// IR program. Building one needs no evaluator, no keys and compiles no plan,
// so a program can be compiled before the rotation keys it needs exist.
//
// The embedding matrices are obtained by probing this library's own encoder
// and inverting the resulting linear system, so the construction is
// self-validating rather than hand-derived.
type BootstrapDesc struct {
	P, Q, R, S *LinearTransform // CoeffToSlot, Δ/q0 folded in: u0 = P·z + Q·z̄, u1 = R·z + S·z̄
	A, B       *LinearTransform // SlotToCoeff, q0/(2πΔ) folded in: out = A·w0 + B·w1
	BabySteps  int              // BSGS baby steps of the six transforms

	// sin(2πu) per branch: y = Theta·u, the Taylor pair Sin(y), Cos(y), then
	// DAFIters double-angle iterations. Theta = 2π/2^DAFIters keeps the
	// coefficients O(1) so they survive fixed-point encoding.
	TaylorDeg int
	DAFIters  int
	Theta     float64
	Sin, Cos  []float64 // odd series up to y^TaylorDeg, even series up to y^(TaylorDeg+1)

	Rotations []int // rotation keys the pipeline needs, besides conjugation
}

// BootstrapperOptions tune the bootstrapper.
type BootstrapperOptions struct {
	K         int // bound on the ModRaise overflow (default 16; needs a sparse secret)
	TaylorDeg int // degree of the small-angle sine polynomial (default 7)
	BabySteps int // BSGS baby steps for the DFT transforms (default ~sqrt(slots))
}

// babySteps is the option's baby-step count, or the smallest power of two
// whose square covers the slot count.
func (o BootstrapperOptions) babySteps(slots int) int {
	if o.BabySteps > 0 {
		return o.BabySteps
	}
	bs := 1
	for bs*bs < slots {
		bs <<= 1
	}
	return bs
}

// BootstrapRotations returns the rotation indices the bootstrapper's
// transforms need (generate keys for these plus conjugation): every baby step
// and every giant step of a dense slots×slots BSGS.
func BootstrapRotations(params *ckks.Parameters, opts BootstrapperOptions) []int {
	slots := params.Slots()
	bs := opts.babySteps(slots)
	set := map[int]bool{}
	for j := 1; j < bs; j++ {
		set[j] = true
	}
	for g := bs; g < slots; g += bs {
		set[g] = true
	}
	return sortedKeys(set)
}

// sineTaylorPair returns the Taylor coefficients of sin (odd powers up to
// y^deg) and cos (even powers up to y^(deg+1)): ±1/i!.
func sineTaylorPair(deg int) (sin, cos []float64) {
	sin = make([]float64, deg+1)
	cos = make([]float64, deg+2)
	fact := 1.0
	for i := 0; i <= deg+1; i++ {
		if i > 0 {
			fact *= float64(i)
		}
		c := 1 / fact
		if i%4 >= 2 {
			c = -c
		}
		if i%2 == 0 {
			cos[i] = c
		} else if i <= deg {
			sin[i] = c
		}
	}
	return sin, cos
}

// NewBootstrapDesc probes the encoder of params, inverts the embedding system
// and lays out the four CoeffToSlot and two SlotToCoeff transforms and the
// sine schedule.
func NewBootstrapDesc(params *ckks.Parameters, opts BootstrapperOptions) (*BootstrapDesc, error) {
	if params.Slots()*2 != params.N() {
		return nil, fmt.Errorf("hefloat: bootstrapping requires full slot packing")
	}
	if opts.K == 0 {
		opts.K = 16
	}
	if opts.TaylorDeg == 0 {
		opts.TaylorDeg = 7
	}
	d := &BootstrapDesc{
		BabySteps: opts.babySteps(params.Slots()),
		TaylorDeg: opts.TaylorDeg,
		Rotations: BootstrapRotations(params, opts),
	}
	// Double-angle iterations: bring 2π(K+1) under a comfortable small angle.
	for 2*math.Pi*float64(opts.K+1)/math.Pow(2, float64(d.DAFIters)) > 0.5 {
		d.DAFIters++
	}
	d.Theta = 2 * math.Pi / math.Pow(2, float64(d.DAFIters))
	d.Sin, d.Cos = sineTaylorPair(d.TaylorDeg)

	a, b := probeEmbedding(params, ckks.NewEncoder(params))
	p, q, r, s, err := invertEmbedding(a, b)
	if err != nil {
		return nil, err
	}
	q0 := float64(params.Q()[0])
	delta := params.DefaultScale()
	fIn := complex(delta/q0, 0)
	fOut := complex(q0/(2*math.Pi*delta), 0)
	lts := make([]*LinearTransform, 6)
	for i, m := range [][][]complex128{p, q, r, s, a, b} {
		f := fIn
		if i >= 4 {
			f = fOut
		}
		for _, row := range m {
			for j := range row {
				row[j] *= f
			}
		}
		if lts[i], err = NewLinearTransform(m); err != nil {
			return nil, err
		}
	}
	d.P, d.Q, d.R, d.S, d.A, d.B = lts[0], lts[1], lts[2], lts[3], lts[4], lts[5]
	return d, nil
}

// probeEmbedding recovers the matrices A, B with slots = A·(c0/Δ) + B·(c1/Δ)
// for coefficient halves c0, c1, by decoding unit-coefficient polynomials.
func probeEmbedding(params *ckks.Parameters, enc *ckks.Encoder) (a, b [][]complex128) {
	n := params.Slots()
	nn := params.N()
	r := params.RingQP()
	delta := params.DefaultScale()
	a = make([][]complex128, n)
	b = make([][]complex128, n)
	for i := range a {
		a[i] = make([]complex128, n)
		b[i] = make([]complex128, n)
	}
	for j := 0; j < nn; j++ {
		poly := r.NewPoly(0)
		for i := range poly.Coeffs {
			poly.Coeffs[i][j] = ring.Reduce(uint64(delta), r.Moduli[i])
		}
		r.NTT(poly)
		col := enc.Decode(&ckks.Plaintext{Value: poly, Scale: delta})
		for i := 0; i < n; i++ {
			if j < n {
				a[i][j] = col[i]
			} else {
				b[i][j-n] = col[i]
			}
		}
	}
	return a, b
}

// invertEmbedding solves [c0; c1] = [[P,Q],[R,S]]·[z; conj(z)] given
// z = A·c0 + B·c1, by inverting the stacked 2n×2n complex system.
func invertEmbedding(a, b [][]complex128) (p, q, r, s [][]complex128, err error) {
	n := len(a)
	m := 2 * n
	// M = [[A, B], [conj(A), conj(B)]], augmented with the identity.
	aug := make([][]complex128, m)
	for i := 0; i < m; i++ {
		aug[i] = make([]complex128, 2*m)
		for j := 0; j < n; j++ {
			if i < n {
				aug[i][j] = a[i][j]
				aug[i][j+n] = b[i][j]
			} else {
				aug[i][j] = cmplx.Conj(a[i-n][j])
				aug[i][j+n] = cmplx.Conj(b[i-n][j])
			}
		}
		aug[i][m+i] = 1
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < m; col++ {
		piv := col
		for row := col + 1; row < m; row++ {
			if cmplx.Abs(aug[row][col]) > cmplx.Abs(aug[piv][col]) {
				piv = row
			}
		}
		if cmplx.Abs(aug[piv][col]) < 1e-12 {
			return nil, nil, nil, nil, fmt.Errorf("hefloat: embedding system is singular at column %d", col)
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := 1 / aug[col][col]
		for j := col; j < 2*m; j++ {
			aug[col][j] *= inv
		}
		for row := 0; row < m; row++ {
			if row == col || aug[row][col] == 0 {
				continue
			}
			f := aug[row][col]
			for j := col; j < 2*m; j++ {
				aug[row][j] -= f * aug[col][j]
			}
		}
	}
	block := func(r0, c0 int) [][]complex128 {
		out := make([][]complex128, n)
		for i := range out {
			out[i] = make([]complex128, n)
			for j := range out[i] {
				out[i][j] = aug[r0+i][m+c0+j]
			}
		}
		return out
	}
	return block(0, 0), block(0, n), block(n, 0), block(n, n), nil
}
