package ring

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"slices"
	"sync"
)

// Ring is the RNS representation of Z_Q[X]/(X^N+1) for Q = q_0·q_1·…·q_{L}.
// Each residue polynomial carries its own NTT tables. A polynomial "at level
// l" uses moduli q_0..q_l; dropping the last modulus models CKKS rescaling.
type Ring struct {
	N      int
	Moduli []uint64
	Tables []*NTTTable

	// rows is the ring's one pool of N-word rows, which its tables share.
	rows *rowPool
}

// NewRing constructs a ring of degree n over the given NTT-friendly moduli.
func NewRing(n int, moduli []uint64) (*Ring, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: degree %d is not a power of two >= 2", n)
	}
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: need at least one modulus")
	}
	r := &Ring{N: n, Moduli: append([]uint64(nil), moduli...), rows: &rowPool{n: n, below: slices.Min(moduli)}}
	seen := make(map[uint64]bool, len(moduli))
	for _, q := range moduli {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		if (q-1)%uint64(2*n) != 0 {
			return nil, fmt.Errorf("ring: modulus %d is not NTT-friendly for degree %d", q, n)
		}
		psi := PrimitiveRoot2N(n, q)
		t := NewNTTTable(n, q, psi)
		t.rows = r.rows
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// rowPool recycles N-word rows for every taker on a ring: an op's scratch,
// the generated NTT kernels' ping-pong row and the rows of pooled results.
// A row comes back as its last holder left it, so a taker that needs zeros
// clears its rows itself. The [][]uint64 headers GetRows hands out come back
// cleared, one pool per length.
type rowPool struct {
	n     int
	below uint64 // the smallest modulus of the rows' ring, for scribble
	rows  boxPool[[]uint64]
	heads [maxHeader]boxPool[[][]uint64] // heads[k-1] holds length-k headers
}

// maxHeader is the longest header the pool recycles; a longer one is left to
// the collector. Every extended polynomial of a shipped chain fits.
const maxHeader = 64

// boxPool recycles values in *T boxes, and a box a get empties waits in
// empty for the next put, so once warm neither call allocates. Both are
// sync.Pools: a collection empties them.
type boxPool[T any] struct {
	full, empty sync.Pool
}

// get returns a pooled value, or the zero T when the pool is empty.
func (p *boxPool[T]) get() (v T) {
	b, ok := p.full.Get().(*T)
	if !ok {
		return v
	}
	v, *b = *b, v
	p.empty.Put(b)
	return v
}

func (p *boxPool[T]) put(v T) {
	b, _ := p.empty.Get().(*T)
	if b == nil {
		b = new(T)
	}
	*b = v
	p.full.Put(b)
}

// row returns a row, a new one when the pool is empty.
func (p *rowPool) row() []uint64 {
	if row := p.rows.get(); row != nil {
		return row
	}
	return make([]uint64, p.n)
}

// put gives row back; a row of another length is dropped to the collector.
func (p *rowPool) put(row []uint64) {
	if len(row) != p.n {
		return
	}
	if poisonRows {
		scribble(row, p.below)
	}
	p.rows.put(row[:p.n:p.n])
}

// header returns a length-k header of nil rows.
func (p *rowPool) header(k int) [][]uint64 {
	if 0 < k && k <= maxHeader {
		if h := p.heads[k-1].get(); h != nil {
			return h
		}
	}
	return make([][]uint64, k)
}

// putHeader clears h and keeps it for the next header of its length. With
// the poisonpool tag it is never handed out again, so a holder that reads it
// after giving it back meets a nil row.
func (p *rowPool) putHeader(h [][]uint64) {
	clear(h)
	if !poisonRows && 0 < len(h) && len(h) <= maxHeader {
		p.heads[len(h)-1].put(h[:len(h):len(h)])
	}
}

// scribble overwrites a row given back with random residues below the ring's
// smallest modulus, fresh per call and per process, when the poisonpool tag
// is set: a row read before it is written, or after it went back, then
// changes a result from run to run. In-range words flow through the lazy
// reductions as wrong values where out-of-range ones can saturate.
func scribble(row []uint64, below uint64) {
	for j := range row {
		row[j] = rand.Uint64N(below)
	}
}

// GetRows returns n length-N rows from the ring's row pool, each as its last
// holder left it: a taker writes every word before reading it, or clears the
// row first. Once the pool runs dry the rest are made on one backing, as
// NewPoly's rows are. The header may be one a PutRows gave back. PutRows
// gives both back.
func (r *Ring) GetRows(n int) [][]uint64 {
	rows := r.rows.header(n)
	for i := range rows {
		if rows[i] = r.rows.rows.get(); rows[i] == nil {
			backing := make([]uint64, (n-i)*r.N)
			for j := i; j < n; j++ {
				rows[j], backing = backing[:r.N:r.N], backing[r.N:]
			}
			break
		}
	}
	return rows
}

// PutRows gives rows back to the ring's row pool, and the slice that holds
// them to the pool of headers, cleared: the holder uses neither afterwards,
// so a header passed with ... is one no other value shares. A row whose
// length is not N is dropped, not pooled.
func (r *Ring) PutRows(rows ...[]uint64) {
	for _, row := range rows {
		r.rows.put(row)
	}
	r.rows.putHeader(rows)
}

// MaxLevel is the highest level index (len(Moduli)-1).
func (r *Ring) MaxLevel() int { return len(r.Moduli) - 1 }

// Poly is an RNS polynomial: Coeffs[i][j] is coefficient j modulo Moduli[i].
// Level (the number of active residues minus one) is implied by len(Coeffs).
type Poly struct {
	Coeffs [][]uint64
	// IsNTT records whether the residues are in the evaluation (NTT) domain.
	IsNTT bool
}

// NewPoly allocates a zero polynomial at the given level.
func (r *Ring) NewPoly(level int) *Poly {
	if level < 0 || level > r.MaxLevel() {
		panic(fmt.Sprintf("ring: level %d out of range [0,%d]", level, r.MaxLevel()))
	}
	backing := make([]uint64, (level+1)*r.N)
	p := &Poly{Coeffs: make([][]uint64, level+1)}
	for i := range p.Coeffs {
		p.Coeffs[i], backing = backing[:r.N], backing[r.N:]
	}
	return p
}

// Level returns the polynomial's level.
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// CopyNew returns a deep copy of p, its rows on one backing as NewPoly's.
func (p *Poly) CopyNew() *Poly {
	n := 0
	for _, row := range p.Coeffs {
		n += len(row)
	}
	backing := make([]uint64, n)
	out := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	for i, row := range p.Coeffs {
		out.Coeffs[i], backing = backing[:len(row)], backing[len(row):]
		copy(out.Coeffs[i], row)
	}
	return out
}

// Copy copies src into p; levels must match.
func (p *Poly) Copy(src *Poly) {
	if len(p.Coeffs) != len(src.Coeffs) {
		panic("ring: level mismatch in Copy")
	}
	for i := range p.Coeffs {
		copy(p.Coeffs[i], src.Coeffs[i])
	}
	p.IsNTT = src.IsNTT
}

// DropLevel removes the top residue (rescale support). Panics at level 0.
func (p *Poly) DropLevel() {
	if len(p.Coeffs) == 1 {
		panic("ring: cannot drop below level 0")
	}
	p.Coeffs = p.Coeffs[:len(p.Coeffs)-1]
}

func minLevel(a, b *Poly) int {
	la, lb := a.Level(), b.Level()
	if la < lb {
		return la
	}
	return lb
}

// Add sets out = a + b, over the residues common to a, b and out.
func (r *Ring) Add(a, b, out *Poly) {
	lvl := minLevel(a, b)
	if out.Level() < lvl {
		lvl = out.Level()
	}
	ForEachLimb(lvl+1, func(i int) {
		q := r.Moduli[i]
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = AddMod(ai[j], bi[j], q)
		}
	})
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b.
func (r *Ring) Sub(a, b, out *Poly) {
	lvl := minLevel(a, b)
	if out.Level() < lvl {
		lvl = out.Level()
	}
	ForEachLimb(lvl+1, func(i int) {
		q := r.Moduli[i]
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = SubMod(ai[j], bi[j], q)
		}
	})
	out.IsNTT = a.IsNTT
}

// Neg sets out = -a.
func (r *Ring) Neg(a, out *Poly) {
	lvl := a.Level()
	if out.Level() < lvl {
		lvl = out.Level()
	}
	ForEachLimb(lvl+1, func(i int) {
		q := r.Moduli[i]
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = NegMod(ai[j], q)
		}
	})
	out.IsNTT = a.IsNTT
}

// MulCoeffs sets out = a ⊙ b, the coefficient-wise product. Both inputs must
// be in the NTT domain (where ⊙ realizes ring multiplication).
func (r *Ring) MulCoeffs(a, b, out *Poly) {
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffs requires NTT-domain operands")
	}
	lvl := minLevel(a, b)
	if out.Level() < lvl {
		lvl = out.Level()
	}
	ForEachLimb(lvl+1, func(i int) {
		m := r.Tables[i].Mod
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = m.MulModBarrett(ai[j], bi[j])
		}
	})
	out.IsNTT = true
}

// NTT transforms p (in place) to the evaluation domain using the default
// merged-twist lazy radix-4 kernel (see NTTTable.Forward). Residues may be
// lazy (< 4q) on entry; they are canonical on return.
func (r *Ring) NTT(p *Poly) {
	if p.IsNTT {
		panic("ring: polynomial already in NTT domain")
	}
	ForEachLimb(len(p.Coeffs), func(i int) {
		r.Tables[i].Forward(p.Coeffs[i])
	})
	p.IsNTT = true
}

// INTT transforms p (in place) back to the coefficient domain.
func (r *Ring) INTT(p *Poly) {
	if !p.IsNTT {
		panic("ring: polynomial already in coefficient domain")
	}
	ForEachLimb(len(p.Coeffs), func(i int) {
		r.Tables[i].Inverse(p.Coeffs[i])
	})
	p.IsNTT = false
}

// ModulusProduct returns the product of the first level+1 moduli as a big.Int.
func (r *Ring) ModulusProduct(level int) *big.Int {
	prod := big.NewInt(1)
	for i := 0; i <= level; i++ {
		prod.Mul(prod, new(big.Int).SetUint64(r.Moduli[i]))
	}
	return prod
}

// ToBigInt reconstructs coefficient j of p (coefficient domain) as an integer
// in [0, Q) using the CRT, writing results into out (len N). Used by the
// CKKS decoder.
func (r *Ring) ToBigInt(p *Poly, out []*big.Int) {
	if p.IsNTT {
		panic("ring: ToBigInt requires coefficient domain")
	}
	level := p.Level()
	Q := r.ModulusProduct(level)
	// CRT basis: e_i = (Q/q_i) * ((Q/q_i)^-1 mod q_i).
	basis := make([]*big.Int, level+1)
	for i := 0; i <= level; i++ {
		qi := new(big.Int).SetUint64(r.Moduli[i])
		Qi := new(big.Int).Div(Q, qi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(Qi, qi), qi)
		basis[i] = new(big.Int).Mul(Qi, inv)
	}
	tmp := new(big.Int)
	for j := 0; j < r.N; j++ {
		acc := big.NewInt(0)
		for i := 0; i <= level; i++ {
			tmp.SetUint64(p.Coeffs[i][j])
			tmp.Mul(tmp, basis[i])
			acc.Add(acc, tmp)
		}
		acc.Mod(acc, Q)
		if out[j] == nil {
			out[j] = new(big.Int)
		}
		out[j].Set(acc)
	}
}

// Equal reports whether two polynomials have identical residues and domain.
func (p *Poly) Equal(other *Poly) bool {
	if len(p.Coeffs) != len(other.Coeffs) || p.IsNTT != other.IsNTT {
		return false
	}
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != other.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}
