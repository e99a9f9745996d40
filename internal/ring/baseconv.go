package ring

import "math/bits"

// BasisConv holds the constants of the fast RNS base conversion out of the
// basis B = Moduli[lo:hi], of product Q_B. For x known by its residues x_s
// over B,
//
//	Σ_s [x_s·(Q_B/q_s)^-1]_{q_s} · (Q_B/q_s) = [x]_{Q_B} + u·Q_B,  0 ≤ u < hi−lo,
//
// and the sum can be taken modulo any other modulus of the ring in word
// arithmetic. The keyswitch digit lift (ModUp) uses it as it stands — the
// overflow u·Q_B only widens the digit, and the switching key absorbs it —
// while ModDown recovers u and so divides exactly.
type BasisConv struct {
	r             *Ring
	lo, hi        int
	inv, invShoup []uint64   // per source s = t−lo: (Q_B/q_s)^-1 mod q_s
	hat, hatShoup [][]uint64 // [table t][source s]: Q_B/q_s mod q_t; nil for t ∈ B
}

// prodMod returns the product of qs without qs[skip] (all of them when skip
// is negative) modulo m.
func prodMod(qs []uint64, skip int, m uint64) uint64 {
	p := uint64(1)
	for s, q := range qs {
		if s != skip {
			p = MulMod(p, q%m, m)
		}
	}
	return p
}

// NewBasisConv precomputes the conversion out of Moduli[lo:hi] towards every
// other modulus of the ring.
func (r *Ring) NewBasisConv(lo, hi int) *BasisConv {
	qs, n := r.Moduli[lo:hi], len(r.Moduli)
	c := &BasisConv{r: r, lo: lo, hi: hi, hat: make([][]uint64, n), hatShoup: make([][]uint64, n)}
	for s, q := range qs {
		c.inv = append(c.inv, InvMod(prodMod(qs, s, q), q))
		c.invShoup = append(c.invShoup, ShoupPrecomp(c.inv[s], q))
	}
	for t, m := range r.Moduli {
		for s := range qs {
			if t < lo || t >= hi {
				c.hat[t] = append(c.hat[t], prodMod(qs, s, m))
				c.hatShoup[t] = append(c.hatShoup[t], ShoupPrecomp(c.hat[t][s], m))
			}
		}
	}
	return c
}

// Scale replaces each canonical coefficient-domain row x[s] over B, in place,
// by y_s = [x_s·(Q_B/q_s)^-1]_{q_s}: the terms Extend sums.
func (c *BasisConv) Scale(x [][]uint64) {
	for s, row := range x {
		q, w, ws := c.r.Moduli[c.lo+s], c.inv[s], c.invShoup[s]
		for j, v := range row {
			row[j] = MulModShoup(v, w, ws, q)
		}
	}
}

// Extend adds Σ_s y[s]·(Q_B/q_s) mod q_t to out, a lazy row under table
// t ∉ B that stays lazy in [0, 2q_t).
func (c *BasisConv) Extend(y [][]uint64, t int, out []uint64) {
	m := c.r.Tables[t].Mod
	for s, row := range y {
		m.MulAddShoupRowLazy(out, row, c.hat[t][s], c.hatShoup[t][s])
	}
}

// ModDown divides by Q_B with exact rounding. With h = ⌊Q_B/2⌋,
// y_s = [(x_s+h)·(Q_B/q_s)^-1]_{q_s} and u = ⌊Σ_s y_s/q_s⌋ the overflow of
// the conversion of x+h,
//
//	round(x/Q_B) = (x+h)·Q_B^-1 − Σ_s y_s·q_s^-1 + u   (mod q_t),
//
// every fraction cancelling. u is read off a 64-bit fixed-point sum whose
// error is a few 2^-64; the sum sits that close to an integer only when
// x mod Q_B is within that of ±Q_B/2, and adding h first puts a multiple of
// Q_B (a lifted ciphertext) at one half, the safest point.
type ModDown struct {
	BasisConv                       // hat[t][s] holds −q_s^-1 mod q_t
	half                   []uint64 // per source s: h·(Q_B/q_s)^-1 mod q_s
	bInv, bInvShoup, bHalf []uint64 // per table t ∉ B: Q_B^-1 and h·Q_B^-1 mod q_t
}

// NewModDown precomputes the division by the product of Moduli[lo:hi] over
// every other modulus of the ring.
func (r *Ring) NewModDown(lo, hi int) *ModDown {
	n := len(r.Moduli)
	d := &ModDown{BasisConv: *r.NewBasisConv(lo, hi), bInv: make([]uint64, n), bInvShoup: make([]uint64, n), bHalf: make([]uint64, n)}
	for s, q := range r.Moduli[lo:hi] {
		// Q_B is odd, so h = (Q_B−1)/2 ≡ (q_s−1)/2 mod q_s.
		d.half = append(d.half, MulMod(q>>1, d.inv[s], q))
	}
	for t, m := range r.Moduli {
		if d.hat[t] == nil {
			continue
		}
		b := prodMod(r.Moduli[lo:hi], -1, m)
		d.bInv[t] = InvMod(b, m)
		d.bInvShoup[t] = ShoupPrecomp(d.bInv[t], m)
		d.bHalf[t] = MulMod(MulMod(SubMod(b, 1, m), (m+1)>>1, m), d.bInv[t], m)
		for s := range d.hat[t] {
			d.hat[t][s] = NegMod(MulMod(d.hat[t][s], d.bInv[t], m), m)
			d.hatShoup[t][s] = ShoupPrecomp(d.hat[t][s], m)
		}
	}
	return d
}

// Digits replaces each canonical coefficient-domain row x[s] over B, in
// place, by y_s, and sets u, whatever it held, to the overflow count of
// every coefficient.
func (d *ModDown) Digits(x [][]uint64, u []uint64) {
	frac := d.r.rows.row()
	clear(frac)
	clear(u)
	for s, row := range x {
		m := d.r.Tables[d.lo+s].Mod
		w, ws, h := d.inv[s], d.invShoup[s], d.half[s]
		for j, v := range row {
			y := AddMod(MulModShoup(v, w, ws, m.Q), h, m.Q)
			row[j] = y
			// y/q_s to 64 fractional bits: y·⌊2^128/q_s⌋ / 2^64.
			hi, _ := bits.Mul64(y, m.BarrettLo)
			sum, carry := bits.Add64(frac[j], y*m.BarrettHi+hi, 0)
			frac[j] = sum
			u[j] += carry
		}
	}
	d.r.rows.put(frac)
}

// Remainder sets out, whatever it held, to h·Q_B^-1 − Σ_s y[s]·q_s^-1 + u
// mod q_t, lazy in [0, 2q_t): what Finish adds x·Q_B^-1 to. It is linear,
// so it may be taken on coefficient-domain rows and transformed before
// Finish meets an NTT-domain x.
func (d *ModDown) Remainder(y [][]uint64, u []uint64, t int, out []uint64) {
	c := d.bHalf[t]
	for j := range out {
		out[j] = u[j] + c // c < q_t and u[j] ≤ len(y): lazy already
	}
	d.Extend(y, t, out)
}

// Finish adds x·Q_B^-1 mod q_t to out (canonical or lazy), leaving
// round(x/Q_B) mod q_t, canonical.
func (d *ModDown) Finish(t int, x, out []uint64) {
	m := d.r.Tables[t].Mod
	m.MulAddShoupRowLazy(out, x, d.bInv[t], d.bInvShoup[t])
	ReduceFinalVec(out, m.Q)
}
