package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

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

// floatWord returns the integer part of v as a signed word; ok is false for
// NaN and ±Inf. A float64 is ±mant·2^e with mant < 2^53, so its integer part
// is mant shifted: right when e < 0 (which truncates toward zero, exactly as
// big.Float.Int does), left while in the word, then as a power of two.
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
// the exact integer part of every coefficient as a machine word, then one
// signed reduction and one NTT per residue row. rows[jj] is taken modulo row
// jj of the level's extended basis (extRow): q_jj up to level, the special
// primes when the rows go on. The caller has checked level and owns the rows,
// heap or pooled.
func (e *Encoder) encodeRows(values []complex128, scale float64, level int, rows [][]uint64) error {
	slots := e.params.Slots()
	if len(values) > slots {
		return fmt.Errorf("ckks: %d values exceed %d slots", len(values), slots)
	}
	buf := make([]complex128, slots)
	copy(buf, values)
	e.fftSpecialInv(buf)

	nh := e.params.N() / 2
	gap := nh / slots
	words := make([]ring.SignedWord, 2*nh)
	for j, c := range buf {
		re, okRe := floatWord(real(c) * scale)
		im, okIm := floatWord(imag(c) * scale)
		if !okRe || !okIm {
			return fmt.Errorf("ckks: cannot encode: a slot value is NaN or ±Inf, or overflows float64 at scale %g", scale)
		}
		words[j*gap], words[nh+j*gap] = re, im
	}
	r := e.params.RingQP()
	ring.ForEachLimb(len(rows), func(jj int) {
		tbl := r.Tables[e.params.extRow(jj, level)]
		tbl.Mod.ReduceSignedRow(rows[jj], words)
		tbl.Forward(rows[jj])
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
// overwritten.
func (e *Encoder) EncodeExtInto(values []complex128, scale float64, pt *ExtPlaintext) error {
	if err := e.checkLevel(pt.Lvl); err != nil {
		return err
	}
	if len(pt.Rows) != e.params.ExtRows(pt.Lvl) {
		return fmt.Errorf("ckks: extended plaintext at level %d has %d rows", pt.Lvl, len(pt.Rows))
	}
	pt.Scale = scale
	return e.encodeRows(values, scale, pt.Lvl, pt.Rows)
}

// Encode encodes at the maximum ciphertext level with the default scale.
func (e *Encoder) Encode(values []complex128) (*Plaintext, error) {
	return e.EncodeAtLevel(values, e.params.DefaultScale(), e.params.MaxLevel())
}

// Decode decodes a plaintext back to a complex slot vector.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	r := e.params.RingQP()
	poly := pt.Value.CopyNew()
	if poly.IsNTT {
		r.INTT(poly)
	}
	n := e.params.N()
	coeffs := make([]*big.Int, n)
	r.ToBigInt(poly, coeffs)

	q := r.ModulusProduct(poly.Level())
	half := new(big.Int).Rsh(q, 1)
	scale := new(big.Float).SetFloat64(pt.Scale)
	slots := e.params.Slots()
	nh := n / 2
	gap := nh / slots
	buf := make([]complex128, slots)
	for j := 0; j < slots; j++ {
		re := centeredFloat(coeffs[j*gap], q, half, scale)
		im := centeredFloat(coeffs[nh+j*gap], q, half, scale)
		buf[j] = complex(re, im)
	}
	e.fftSpecial(buf)
	return buf
}

func centeredFloat(v, q, half *big.Int, scale *big.Float) float64 {
	c := new(big.Int).Set(v)
	if c.Cmp(half) > 0 {
		c.Sub(c, q)
	}
	f := new(big.Float).SetInt(c)
	f.Quo(f, scale)
	out, _ := f.Float64()
	return out
}
