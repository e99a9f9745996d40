package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"
	"sync"

	"hydra/internal/ring"
)

// Plaintext is an encoded message: an RNS polynomial (kept in the NTT domain
// so it can multiply ciphertexts directly) together with its scale.
type Plaintext struct {
	Value *ring.Poly
	Scale float64
}

// Level returns the plaintext's level.
func (p *Plaintext) Level() int { return p.Value.Level() }

// Encoder maps complex slot vectors to ring elements via the canonical
// embedding (the "special FFT" of HEAAN/Lattigo).
type Encoder struct {
	params *Parameters
	// twInv and twFwd hold the special FFT's twiddles stage by stage: the
	// stage of half-length h reads tw[h-1 : 2h-1], entry h-1+j being the root
	// of unity (index 5^j mod 8h, negated for the inverse) of butterfly j.
	twInv, twFwd []complex128
	// scratch recycles encodeRows' FFT buffer and word row (*encodeScratch).
	scratch sync.Pool
}

// encodeScratch is one encode's working set: Slots() FFT values, N
// coefficient words, and the coefficients too wide for a word.
type encodeScratch struct {
	buf   []complex128
	words []int64
	wide  []wideCoeff
}

// wideCoeff is coefficient idx when its integer part is at least 2^62 in
// magnitude: rare, since it takes a slot value near 2^62/scale.
type wideCoeff struct {
	idx int
	w   ring.SignedWord
}

// put stores the integer part of x as coefficient idx: in the word row when
// |x| < 2^62 (ring.Modulus.ReduceInt's range), where Go's conversion truncates
// toward zero as floatWord does, else on the wide list. ok is false for NaN
// and ±Inf.
func (s *encodeScratch) put(idx int, x float64) (ok bool) {
	if math.Abs(x) < 0x1p62 {
		s.words[idx] = int64(x)
		return true
	}
	w, ok := floatWord(x)
	s.wide = append(s.wide, wideCoeff{idx, w})
	return ok
}

// Params returns the encoder's parameter set.
func (e *Encoder) Params() *Parameters { return e.params }

// NewEncoder builds an encoder for the given parameters.
func NewEncoder(params *Parameters) *Encoder {
	m := 2 * params.N()
	roots := make([]complex128, m+1) // e^(2πi·j/2N)
	for j := range roots {
		roots[j] = cmplx.Exp(complex(0, 2*math.Pi*float64(j)/float64(m)))
	}
	slots := params.Slots()
	e := &Encoder{params: params, twInv: make([]complex128, slots-1), twFwd: make([]complex128, slots-1)}
	for lenh := 1; lenh < slots; lenh <<= 1 {
		lenq := lenh << 3
		for j, five := 0, 1; j < lenh; j, five = j+1, five*5%m {
			idx := five % lenq
			e.twFwd[lenh-1+j] = roots[idx*m/lenq]
			e.twInv[lenh-1+j] = roots[(lenq-idx)*m/lenq]
		}
	}
	e.scratch.New = func() any {
		return &encodeScratch{buf: make([]complex128, slots), words: make([]int64, params.N())}
	}
	return e
}

// fftSpecialInv is the inverse canonical-embedding FFT (encode direction).
func (e *Encoder) fftSpecialInv(vals []complex128) {
	size := len(vals)
	for lenh := size >> 1; lenh >= 1; lenh >>= 1 {
		tw := e.twInv[lenh-1 : 2*lenh-1]
		for i := 0; i < size; i += 2 * lenh {
			lo, hi := vals[i:i+lenh], vals[i+lenh:i+2*lenh]
			for j, w := range tw {
				lo[j], hi[j] = lo[j]+hi[j], (lo[j]-hi[j])*w
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(size), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// fftSpecial is the forward canonical-embedding FFT (decode direction).
func (e *Encoder) fftSpecial(vals []complex128) {
	bitReverseComplex(vals)
	size := len(vals)
	for lenh := 1; lenh < size; lenh <<= 1 {
		tw := e.twFwd[lenh-1 : 2*lenh-1]
		for i := 0; i < size; i += 2 * lenh {
			lo, hi := vals[i:i+lenh], vals[i+lenh:i+2*lenh]
			for j, w := range tw {
				u, v := lo[j], hi[j]*w
				lo[j], hi[j] = u+v, u-v
			}
		}
	}
}

func bitReverseComplex(vals []complex128) {
	n := len(vals)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// floatWord returns the integer part of v as a signed word, the form of the
// coefficients put leaves off the word row; ok is false for NaN and ±Inf. A
// float64 is ±mant·2^e with mant < 2^53, so its integer part is mant shifted:
// right when e < 0 (which truncates toward zero, exactly as big.Float.Int
// does), left while in the word, then as a power of two.
func floatWord(v float64) (w ring.SignedWord, ok bool) {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	w.Neg = b>>63 != 0
	mant := b&(1<<52-1) | 1<<52
	switch e := exp - 1075; {
	case e <= -53: // |v| < 1, subnormals included
	case e <= 0:
		w.Mag = mant >> uint(-e)
	case e <= 11:
		w.Mag = mant << uint(e)
	default:
		w.Mag, w.Shift = mant, uint16(e)
	}
	return w, exp != 0x7ff
}

// encodeRows is the one encode path: the canonical-embedding FFT, scaling,
// the exact integer part of every coefficient as an int64 (or, beyond 2^62, a
// SignedWord on the short wide list), then per residue row one signed
// reduction, the wide coefficients patched in, and one NTT. rows[jj] is taken
// modulo row jj of the level's extended basis (extRow): q_jj up to level, the
// special primes when the rows go on. The caller has checked level and owns
// the rows, heap or pooled.
func (e *Encoder) encodeRows(values []complex128, scale float64, level int, rows [][]uint64) error {
	slots := e.params.Slots()
	if len(values) > slots {
		return fmt.Errorf("ckks: %d values exceed %d slots", len(values), slots)
	}
	s := e.scratch.Get().(*encodeScratch)
	defer e.scratch.Put(s)
	buf := s.buf
	clear(buf[copy(buf, values):])
	e.fftSpecialInv(buf)

	nh := e.params.N() / 2
	gap := nh / slots
	clear(s.words) // the words between gap strides stay zero
	s.wide = s.wide[:0]
	for j, c := range buf {
		if !s.put(j*gap, real(c)*scale) || !s.put(nh+j*gap, imag(c)*scale) {
			return fmt.Errorf("ckks: cannot encode: a slot value is NaN or ±Inf, or overflows float64 at scale %g", scale)
		}
	}
	r := e.params.RingQP()
	ring.ForEachLimb(len(rows), func(jj int) {
		tbl, row := r.Tables[e.params.extRow(jj, level)], rows[jj]
		tbl.Mod.ReduceIntRow(row, s.words)
		for _, c := range s.wide {
			row[c.idx] = tbl.Mod.ReduceSigned(c.w)
		}
		tbl.Forward(row)
	})
	return nil
}

func (e *Encoder) checkLevel(level int) error {
	if level < 0 || level > e.params.MaxLevel() {
		return fmt.Errorf("ckks: level %d out of range", level)
	}
	return nil
}

// EncodeAtLevel encodes values (len ≤ Slots()) into a fresh plaintext at the
// given level with the given scale. Shorter inputs are zero-padded; a NaN or
// infinite slot is an error.
func (e *Encoder) EncodeAtLevel(values []complex128, scale float64, level int) (*Plaintext, error) {
	if err := e.checkLevel(level); err != nil {
		return nil, err
	}
	poly := e.params.RingQP().NewPoly(level)
	if err := e.encodeRows(values, scale, level, poly.Coeffs); err != nil {
		return nil, err
	}
	poly.IsNTT = true
	return &Plaintext{Value: poly, Scale: scale}, nil
}

// ExtPlaintext is a plaintext encoded over the extended basis q_0..q_level
// and the special primes: the operand form that multiplies extended-basis
// keyswitch accumulators (ExtCiphertext) without leaving the P·Q domain.
// Rows[0..Lvl] are the q_i residues and Rows[Lvl+1:] the residues modulo the
// special primes, ExtRows(Lvl) in all, NTT-domain canonical.
// EncodeExtAtLevel's rows are heap-allocated, so the result can live in a
// compiled transform plan; EncodeExtInto fills rows the caller lends it.
type ExtPlaintext struct {
	Lvl   int
	Rows  [][]uint64
	Scale float64
}

// row returns the residue row that meets row jj of a level-lvl extended
// ciphertext, lvl ≤ p.Lvl: the special rows sit after p's own Q rows.
func (p *ExtPlaintext) row(jj, lvl int) []uint64 {
	if jj > lvl {
		jj += p.Lvl - lvl
	}
	return p.Rows[jj]
}

// EncodeExtAtLevel encodes values into an extended-basis plaintext at the
// given level: the same canonical-embedding encode as EncodeAtLevel plus the
// residue rows modulo the special primes that the double-hoisted keyswitch
// path consumes.
func (e *Encoder) EncodeExtAtLevel(values []complex128, scale float64, level int) (*ExtPlaintext, error) {
	if err := e.checkLevel(level); err != nil {
		return nil, err
	}
	pt := &ExtPlaintext{Lvl: level, Rows: make([][]uint64, e.params.ExtRows(level))}
	for jj := range pt.Rows { // row by row: N words are a size class, the whole plaintext is not
		pt.Rows[jj] = make([]uint64, e.params.N())
	}
	if err := e.EncodeExtInto(values, scale, pt); err != nil {
		return nil, err
	}
	return pt, nil
}

// EncodeExtInto is EncodeExtAtLevel into rows the caller lends, pooled
// scratch for instance: ExtRows(pt.Lvl) rows of N words, every one
// overwritten — or pt.Lvl+1 rows for the Q residues alone, the operand of a
// closed accumulator.
func (e *Encoder) EncodeExtInto(values []complex128, scale float64, pt *ExtPlaintext) error {
	if err := e.checkLevel(pt.Lvl); err != nil {
		return err
	}
	if n := len(pt.Rows); n != e.params.ExtRows(pt.Lvl) && n != pt.Lvl+1 {
		return fmt.Errorf("ckks: extended plaintext at level %d has %d rows", pt.Lvl, len(pt.Rows))
	}
	pt.Scale = scale
	return e.encodeRows(values, scale, pt.Lvl, pt.Rows)
}

// Decode decodes a plaintext back to a complex slot vector. It allocates the
// vector it returns and nothing per coefficient: the inverse NTT runs on
// pooled rows, and each coefficient is divided by the scale in machine words
// (coeffDecoder), math/big taking only a coefficient the word path refuses.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	r := e.params.RingQP()
	poly := pt.Value
	if poly.IsNTT {
		c := e.params.pooledPoly(poly.Level())
		defer e.params.releasePolys(c)
		c.Copy(poly)
		r.INTT(c)
		poly = c
	}
	d := newCoeffDecoder(r, poly, pt.Scale)
	slots := e.params.Slots()
	nh := e.params.N() / 2
	gap := nh / slots
	buf := make([]complex128, slots)
	for j := range buf {
		buf[j] = complex(d.coeff(j*gap), d.coeff(nh+j*gap))
	}
	e.fftSpecial(buf)
	return buf
}

// coeffDecoder returns c/scale for the coefficients c of one
// coefficient-domain polynomial, centred in (−Q/2, Q/2], rounded as math/big
// rounds it: c as a big.Float (exact, at least 64 bits), the quotient rounded
// to 64 bits and then to a float64, each to nearest even.
//
// The word path takes c from residue 0 alone: v = c_0 centred mod q_0, so
// |v| < q_0/2 ≤ Q/2. When v matches every other residue, v ≡ c mod Q by the
// CRT and v is c's centred value exactly. Any other coefficient, and every
// coefficient when the scale is not a positive normal float64, takes
// ring.ToBigInt, made once for the whole polynomial at the first refusal.
type coeffDecoder struct {
	r     *ring.Ring
	poly  *ring.Poly
	scale float64
	// m·2^exp is the scale with m's top bit set; words is false when the
	// scale is not a positive normal float64.
	m     uint64
	exp   int
	words bool
	// After the first refusal: ToBigInt of poly, Q, ⌊Q/2⌋ and the scale.
	big      []*big.Int
	q, half  *big.Int
	bigScale *big.Float
}

func newCoeffDecoder(r *ring.Ring, poly *ring.Poly, scale float64) coeffDecoder {
	d := coeffDecoder{r: r, poly: poly, scale: scale}
	b := math.Float64bits(scale)
	if e := int(b>>52) & 0x7ff; b>>63 == 0 && e != 0 && e != 0x7ff {
		d.m, d.exp, d.words = (b&(1<<52-1)|1<<52)<<11, e-1075-11, true
	}
	return d
}

func (d *coeffDecoder) coeff(idx int) float64 {
	if d.words {
		if v, ok := d.centred(idx); ok {
			if f, ok := d.quo(v); ok {
				return f
			}
		}
	}
	if d.big == nil {
		d.big = make([]*big.Int, d.r.N)
		d.r.ToBigInt(d.poly, d.big)
		d.q = d.r.ModulusProduct(d.poly.Level())
		d.half = new(big.Int).Rsh(d.q, 1)
		d.bigScale = new(big.Float).SetFloat64(d.scale)
	}
	c := new(big.Int).Set(d.big[idx])
	if c.Cmp(d.half) > 0 {
		c.Sub(c, d.q)
	}
	x := new(big.Float).SetInt(c) // at least 64 bits, as quo's quotient
	f, _ := x.Quo(x, d.bigScale).Float64()
	return f
}

// centred returns coefficient idx centred mod Q when residue 0 determines it,
// ok false when it does not.
func (d *coeffDecoder) centred(idx int) (v int64, ok bool) {
	q0, c0 := d.r.Moduli[0], d.poly.Coeffs[0][idx]
	if c0 >= q0 {
		return 0, false
	}
	v = int64(c0)
	if c0 > q0>>1 {
		v -= int64(q0)
	}
	for i, row := range d.poly.Coeffs[1:] {
		if d.r.Tables[i+1].Mod.ReduceInt(v) != row[idx] {
			return 0, false
		}
	}
	return v, true
}

// quo returns v/scale rounded as big.Float rounds it; ok is false when the
// result leaves the normal float64 range, where a second rounding would
// differ.
func (d *coeffDecoder) quo(v int64) (f float64, ok bool) {
	if v == 0 {
		return 0, true
	}
	a := uint64(v)
	if v < 0 {
		a = -a
	}
	shift := bits.LeadingZeros64(a)
	a <<= shift
	// (qt + rem/m)·2^exp = |v|/scale with qt ∈ [2^63, 2^64): 64 bits of
	// quotient, and the remainder that rounds them to nearest even.
	exp := -d.exp - shift - 64
	var qt, rem uint64
	if a < d.m {
		qt, rem = bits.Div64(a, 0, d.m)
	} else {
		qt, rem = bits.Div64(a>>1, a<<63, d.m)
		exp++
	}
	if half := d.m >> 1; rem > half || rem == half && qt&1 == 1 { // m is even
		if qt++; qt == 0 {
			qt, exp = 1<<63, exp+1
		}
	}
	if exp < -1022-63 || exp > 1023-64 {
		return 0, false
	}
	f = math.Ldexp(float64(qt), exp) // float64(qt) rounds to nearest even
	if v < 0 {
		f = -f
	}
	return f, true
}
