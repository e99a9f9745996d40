package ring

import "sync"

// NTTTable holds the precomputed twiddle factors for the negacyclic
// number-theoretic transform of length N modulo a prime q ≡ 1 (mod 2N).
//
// The forward transform maps the coefficient vector of a(X) ∈ Z_q[X]/(X^N+1)
// to its evaluations at the odd powers of a primitive 2N-th root of unity ψ,
// in natural order: NTT(a)[j] = a(ψ^(2j+1)). Keeping the evaluation order
// natural makes Galois automorphisms a simple index permutation (see
// automorphism.go), mirroring the logical-control automorphism unit of the
// Poseidon/Hydra hardware.
//
// Two kernels implement the transform:
//
//   - The generic merged-twist lazy kernel (Longa–Naehrig ψ-merged
//     Cooley–Tukey forward, Gentleman–Sande inverse with the 1/N scale
//     folded into the last stage, Harvey lazy reduction throughout, radix-4
//     fused stage pairs). It models the pipelined Radix-4 NTT unit Hydra
//     adopts in place of Poseidon's Radix-8 design: the ψ-twist, the
//     butterfly network and the final correction are one dataflow, not
//     separate memory passes.
//   - The generated kernels (ntt_gen.go): the same network specialized per
//     shipped degree. Forward/Inverse run them whenever the table qualifies
//     (see gendispatch.go) and the generic kernel otherwise.
//
// Both are bit-identical — same input, same canonical output — to each other
// and to the textbook five-pass radix-2 pipeline that is their oracle
// (ntt_oracle_test.go).
type NTTTable struct {
	N    int
	LogN int
	Mod  Modulus

	brv []int // bit-reversal permutation of [0,N)

	// Merged-twist tables, stage-contiguous: stage m of the ψ-merged
	// Cooley–Tukey network reads psiMerged[m..2m) sequentially (no strided
	// omegaPows[step*j] lookups), with psiMerged[k] = ψ^brv(k). The inverse
	// Gentleman–Sande network reads psiInvMerged[h..2h) per stage, with
	// psiInvMerged[k] = ψ^(-brv(k)).
	psiMerged         []uint64
	psiMergedShoup    []uint64
	psiInvMerged      []uint64
	psiInvMergedShoup []uint64

	nInv      uint64 // N^-1 mod q, folded into the inverse's last stage
	nInvShoup uint64
	// invLastW = ψ^(-N/2) / N: the last inverse stage's single twiddle
	// (psiInvMerged[1]) pre-multiplied by 1/N.
	invLastW      uint64
	invLastWShoup uint64

	// gen is the codegen-specialized kernel pair emitted by
	// cmd/hydra-genkernels, set at construction when the degree ships one
	// and q < GeneratedQBound (see gendispatch.go); nil means Forward/Inverse
	// run the generic merged kernel.
	gen *generatedKernelPair
	// genScratch pools the N-word ping-pong rows the generated kernels use
	// to fuse the bit-reverse permutation into a butterfly pass. Nil when
	// gen is.
	genScratch *sync.Pool
}

// NewNTTTable builds the tables for length n (a power of two ≥ 2) and prime
// q ≡ 1 (mod 2n). psi must be a primitive 2n-th root of unity mod q.
func NewNTTTable(n int, q, psi uint64) *NTTTable {
	if n < 2 || n&(n-1) != 0 {
		panic("ring: NTT length must be a power of two >= 2")
	}
	if (q-1)%uint64(2*n) != 0 {
		panic("ring: modulus not NTT-friendly for this length")
	}
	if PowMod(psi, uint64(n), q) != q-1 {
		panic("ring: psi is not a primitive 2N-th root of unity")
	}
	t := &NTTTable{N: n, LogN: log2(n), Mod: NewModulus(q)}
	t.brv = bitReversePerm(n)

	psiPows := powerTable(psi, n, q)
	psiInvPows := powerTable(InvMod(psi, q), n, q)
	t.psiMerged = make([]uint64, n)
	t.psiInvMerged = make([]uint64, n)
	for k := 0; k < n; k++ {
		t.psiMerged[k] = psiPows[t.brv[k]]
		t.psiInvMerged[k] = psiInvPows[t.brv[k]]
	}
	t.psiMergedShoup = shoupTable(t.psiMerged, q)
	t.psiInvMergedShoup = shoupTable(t.psiInvMerged, q)

	t.nInv = InvMod(uint64(n), q)
	t.nInvShoup = ShoupPrecomp(t.nInv, q)
	t.invLastW = MulMod(t.psiInvMerged[1], t.nInv, q)
	t.invLastWShoup = ShoupPrecomp(t.invLastW, q)
	t.initGenerated()
	return t
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

func powerTable(base uint64, n int, q uint64) []uint64 {
	tbl := make([]uint64, n)
	tbl[0] = 1
	for i := 1; i < n; i++ {
		tbl[i] = MulMod(tbl[i-1], base, q)
	}
	return tbl
}

func shoupTable(vals []uint64, q uint64) []uint64 {
	tbl := make([]uint64, len(vals))
	for i, v := range vals {
		tbl[i] = ShoupPrecomp(v, q)
	}
	return tbl
}

func bitReversePerm(n int) []int {
	logN := log2(n)
	p := make([]int, n)
	for i := range p {
		r := 0
		for b := 0; b < logN; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (logN - 1 - b)
			}
		}
		p[i] = r
	}
	return p
}

// Forward computes the in-place negacyclic NTT of a with the merged-twist
// lazy radix-4 kernel — the table's generated specialization when it has
// one, the generic kernel otherwise. Input residues may be lazy (any values
// < 4q); the output is canonical.
func (t *NTTTable) Forward(a []uint64) {
	if t.gen != nil {
		t.forwardGenerated(a)
		return
	}
	t.forwardMergedLazy(a)
	t.finishForward(a)
}

// Inverse computes the in-place inverse negacyclic NTT of a with the merged
// lazy radix-4 Gentleman–Sande kernel. Input and output are canonical.
func (t *NTTTable) Inverse(a []uint64) {
	if t.gen != nil {
		t.inverseGenerated(a)
		return
	}
	t.bitReverse(a)
	t.inverseMergedLazy(a)
}

// forwardMergedLazy runs the ψ-merged Cooley–Tukey network on natural-order
// input: log N butterfly stages, no separate twist pass, stage-contiguous
// twiddle reads, Harvey lazy reduction (values float in [0, 4q), each
// butterfly spends one conditional subtraction instead of two full
// reductions). Stages are fused in pairs (radix-4); an odd log N runs one
// leading radix-2 stage. Output is in bit-reversed evaluation order with
// lazy values < 4q — finishForward restores natural order and canonical
// residues in a single sweep.
func (t *NTTTable) forwardMergedLazy(a []uint64) {
	q := t.Mod.Q
	twoQ := q << 1
	n := t.N
	m := 1
	if t.LogN&1 == 1 {
		// Leading radix-2 stage (m = 1): one block spanning the array,
		// twiddle ψ^brv(1) = ψ^(N/2).
		h := n >> 1
		w, ws := t.psiMerged[1], t.psiMergedShoup[1]
		for j := 0; j < h; j++ {
			x, y := a[j], a[j+h]
			if x >= twoQ {
				x -= twoQ
			}
			v := MulModShoupLazy(y, w, ws, q)
			a[j] = x + v
			a[j+h] = x + twoQ - v
		}
		m = 2
	}
	for ; m < n; m <<= 2 {
		// Fuse stages m and 2m: quarter-block length tq = N/(4m).
		tq := n / (4 * m)
		for i := 0; i < m; i++ {
			w1, w1s := t.psiMerged[m+i], t.psiMergedShoup[m+i]
			w2, w2s := t.psiMerged[2*m+2*i], t.psiMergedShoup[2*m+2*i]
			w3, w3s := t.psiMerged[2*m+2*i+1], t.psiMergedShoup[2*m+2*i+1]
			base := 4 * tq * i
			for j := base; j < base+tq; j++ {
				x0 := a[j]
				x1 := a[j+tq]
				x2 := a[j+2*tq]
				x3 := a[j+3*tq]

				// Stage m: pairs (x0,x2) and (x1,x3), shared twiddle w1.
				if x0 >= twoQ {
					x0 -= twoQ
				}
				v := MulModShoupLazy(x2, w1, w1s, q)
				y0 := x0 + v
				y2 := x0 + twoQ - v
				if x1 >= twoQ {
					x1 -= twoQ
				}
				v = MulModShoupLazy(x3, w1, w1s, q)
				y1 := x1 + v
				y3 := x1 + twoQ - v

				// Stage 2m: pairs (y0,y1) with w2 and (y2,y3) with w3.
				if y0 >= twoQ {
					y0 -= twoQ
				}
				v = MulModShoupLazy(y1, w2, w2s, q)
				a[j] = y0 + v
				a[j+tq] = y0 + twoQ - v
				if y2 >= twoQ {
					y2 -= twoQ
				}
				v = MulModShoupLazy(y3, w3, w3s, q)
				a[j+2*tq] = y2 + v
				a[j+3*tq] = y2 + twoQ - v
			}
		}
	}
}

// finishForward is the merged kernel's single closing sweep: it permutes the
// bit-reversed network output back to the natural evaluation order and folds
// the lazy correction ([0, 4q) → [0, q)) into the same pass, so neither a
// standalone permutation pass nor a standalone reduction pass remains.
func (t *NTTTable) finishForward(a []uint64) {
	q := t.Mod.Q
	twoQ := q << 1
	for i, r := range t.brv {
		switch {
		case i < r:
			x, y := a[r], a[i]
			if x >= twoQ {
				x -= twoQ
			}
			if x >= q {
				x -= q
			}
			if y >= twoQ {
				y -= twoQ
			}
			if y >= q {
				y -= q
			}
			a[i], a[r] = x, y
		case i == r:
			x := a[i]
			if x >= twoQ {
				x -= twoQ
			}
			if x >= q {
				x -= q
			}
			a[i] = x
		}
	}
}

// inverseMergedLazy runs the ψ⁻¹-merged Gentleman–Sande network on
// bit-reversed input: no separate untwist pass (the ψ^(-i) powers live in
// the stage twiddles), no separate 1/N pass (the scale is folded into the
// last stage's multipliers), lazy values in [0, 2q) between stages. Stage
// pairs are fused (radix-4); the last stage fully reduces, so the output is
// canonical natural-order coefficients.
func (t *NTTTable) inverseMergedLazy(a []uint64) {
	q := t.Mod.Q
	twoQ := q << 1
	n := t.N
	tt := 1
	m := n
	for ; m >= 4; m >>= 2 {
		h := m >> 1  // stage-m block count
		hq := m >> 2 // stage-m/2 block count
		// fold: stage m/2 is the final stage — merge the 1/N scale into its
		// multipliers and emit canonical residues.
		fold := m == 4
		for i := 0; i < hq; i++ {
			sA0, sA0s := t.psiInvMerged[h+2*i], t.psiInvMergedShoup[h+2*i]
			sA1, sA1s := t.psiInvMerged[h+2*i+1], t.psiInvMergedShoup[h+2*i+1]
			sB, sBs := t.psiInvMerged[hq+i], t.psiInvMergedShoup[hq+i]
			base := 4 * tt * i
			for j := base; j < base+tt; j++ {
				y0 := a[j]
				y1 := a[j+tt]
				y2 := a[j+2*tt]
				y3 := a[j+3*tt]

				// Stage m: pairs (y0,y1) and (y2,y3), adjacent twiddles.
				u0 := y0 + y1
				if u0 >= twoQ {
					u0 -= twoQ
				}
				v0 := MulModShoupLazy(y0+twoQ-y1, sA0, sA0s, q)
				u1 := y2 + y3
				if u1 >= twoQ {
					u1 -= twoQ
				}
				v1 := MulModShoupLazy(y2+twoQ-y3, sA1, sA1s, q)

				// Stage m/2: pairs (u0,u1) and (v0,v1), shared twiddle.
				if fold {
					a[j] = MulModShoup(u0+u1, t.nInv, t.nInvShoup, q)
					a[j+2*tt] = MulModShoup(u0+twoQ-u1, t.invLastW, t.invLastWShoup, q)
					a[j+tt] = MulModShoup(v0+v1, t.nInv, t.nInvShoup, q)
					a[j+3*tt] = MulModShoup(v0+twoQ-v1, t.invLastW, t.invLastWShoup, q)
					continue
				}
				s := u0 + u1
				if s >= twoQ {
					s -= twoQ
				}
				a[j] = s
				a[j+2*tt] = MulModShoupLazy(u0+twoQ-u1, sB, sBs, q)
				s = v0 + v1
				if s >= twoQ {
					s -= twoQ
				}
				a[j+tt] = s
				a[j+3*tt] = MulModShoupLazy(v0+twoQ-v1, sB, sBs, q)
			}
		}
		tt <<= 2
	}
	if m == 2 {
		// Odd log N: one trailing radix-2 stage carries the 1/N fold.
		h := n >> 1
		for j := 0; j < h; j++ {
			y0, y1 := a[j], a[j+h]
			a[j] = MulModShoup(y0+y1, t.nInv, t.nInvShoup, q)
			a[j+h] = MulModShoup(y0+twoQ-y1, t.invLastW, t.invLastWShoup, q)
		}
	}
}

func (t *NTTTable) bitReverse(a []uint64) {
	for i, r := range t.brv {
		if i < r {
			a[i], a[r] = a[r], a[i]
		}
	}
}
