package ckks

import (
	"math"
	"math/big"
	"math/cmplx"
	"testing"

	"hydra/internal/ring"
)

// encodeOracle is the math/big encoder the word path replaced, kept whole as
// the reference: twiddle indices computed in the butterfly loop from 5^j mod
// 2N, one big.Float and one big.Int per coefficient, one big.Int.Mod per
// coefficient per residue row. It shares only the NTT with the production
// path.
type encodeOracle struct {
	params   *Parameters
	m        int
	rotGroup []int
	roots    []complex128
}

func newEncodeOracle(params *Parameters) *encodeOracle {
	n := params.N()
	o := &encodeOracle{params: params, m: 2 * n, rotGroup: make([]int, n/2)}
	five := 1
	for i := range o.rotGroup {
		o.rotGroup[i] = five
		five = (five * 5) % o.m
	}
	o.roots = make([]complex128, o.m+1)
	for j := range o.roots {
		o.roots[j] = cmplx.Exp(complex(0, 2*math.Pi*float64(j)/float64(o.m)))
	}
	return o
}

func (o *encodeOracle) fftSpecialInv(vals []complex128) {
	size := len(vals)
	for length := size; length >= 2; length >>= 1 {
		for i := 0; i < size; i += length {
			lenh, lenq := length>>1, length<<2
			for j := 0; j < lenh; j++ {
				idx := (lenq - (o.rotGroup[j] % lenq)) * o.m / lenq
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * o.roots[idx]
				vals[i+j], vals[i+j+lenh] = u, v
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(size), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

func (o *encodeOracle) fftSpecial(vals []complex128) {
	bitReverseComplex(vals)
	size := len(vals)
	for length := 2; length <= size; length <<= 1 {
		for i := 0; i < size; i += length {
			lenh, lenq := length>>1, length<<2
			for j := 0; j < lenh; j++ {
				idx := (o.rotGroup[j] % lenq) * o.m / lenq
				u, v := vals[i+j], vals[i+j+lenh]*o.roots[idx]
				vals[i+j], vals[i+j+lenh] = u+v, u-v
			}
		}
	}
}

// coeffs returns the signed integer coefficients of the encoded polynomial.
func (o *encodeOracle) coeffs(values []complex128, scale float64) []*big.Int {
	slots := o.params.Slots()
	buf := make([]complex128, slots)
	copy(buf, values)
	o.fftSpecialInv(buf)
	n := o.params.N()
	nh := n / 2
	gap := nh / slots
	coeffs := make([]*big.Int, n)
	for i := range coeffs {
		coeffs[i] = new(big.Int)
	}
	for j := 0; j < slots; j++ {
		new(big.Float).SetFloat64(real(buf[j]) * scale).Int(coeffs[j*gap])
		new(big.Float).SetFloat64(imag(buf[j]) * scale).Int(coeffs[nh+j*gap])
	}
	return coeffs
}

// rows returns the NTT-domain residue rows of the level's extended basis:
// q_0..q_level, then every special prime.
func (o *encodeOracle) rows(values []complex128, scale float64, level int) [][]uint64 {
	coeffs := o.coeffs(values, scale)
	r := o.params.RingQP()
	rows := make([][]uint64, o.params.ExtRows(level))
	tmp := new(big.Int)
	for jj := range rows {
		tblIdx := jj
		if jj > level {
			tblIdx = o.params.SpecialIndex() + jj - level - 1
		}
		q := new(big.Int).SetUint64(r.Moduli[tblIdx])
		row := make([]uint64, r.N)
		for t := range row {
			row[t] = tmp.Mod(coeffs[t], q).Uint64()
		}
		r.Tables[tblIdx].Forward(row)
		rows[jj] = row
	}
	return rows
}

// finite reports whether the word path must accept values at scale: every
// scaled coefficient is a finite float64.
func (o *encodeOracle) finite(values []complex128, scale float64) bool {
	buf := make([]complex128, o.params.Slots())
	copy(buf, values)
	o.fftSpecialInv(buf)
	for _, c := range buf {
		re, im := real(c)*scale, imag(c)*scale
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return false
		}
	}
	return true
}

// checkEncodeAgainstOracle encodes values through all three entry points (Q
// basis, extended basis, extended basis into lent rows) and compares every
// residue with the oracle's.
func checkEncodeAgainstOracle(t *testing.T, enc *Encoder, o *encodeOracle, values []complex128, scale float64, level int) {
	t.Helper()
	pt, err := enc.EncodeAtLevel(values, scale, level)
	ext, errExt := enc.EncodeExtAtLevel(values, scale, level)
	if !o.finite(values, scale) {
		if err == nil || errExt == nil {
			t.Fatalf("non-finite coefficients at scale %g encoded without error (%v, %v)", scale, err, errExt)
		}
		return
	}
	if err != nil || errExt != nil {
		t.Fatalf("encode at scale %g level %d: %v, %v", scale, level, err, errExt)
	}
	if !pt.Value.IsNTT || pt.Scale != scale || ext.Scale != scale || ext.Lvl != level {
		t.Fatalf("plaintext metadata: ntt %v scale %g/%g level %d", pt.Value.IsNTT, pt.Scale, ext.Scale, ext.Lvl)
	}
	want := o.rows(values, scale, level)
	if len(pt.Value.Coeffs) != level+1 || len(ext.Rows) != len(want) {
		t.Fatalf("row counts %d, %d at level %d, oracle %d", len(pt.Value.Coeffs), len(ext.Rows), level, len(want))
	}
	// Lent rows arrive dirty (a pooled row's last user left its residues).
	lent := &ExtPlaintext{Lvl: level, Rows: make([][]uint64, len(want))}
	for jj := range lent.Rows {
		lent.Rows[jj] = make([]uint64, enc.params.N())
		for i := range lent.Rows[jj] {
			lent.Rows[jj][i] = ^uint64(0)
		}
	}
	if err := enc.EncodeExtInto(values, scale, lent); err != nil || lent.Scale != scale {
		t.Fatalf("EncodeExtInto: %v, scale %g", err, lent.Scale)
	}
	for jj, w := range want {
		for i := range w {
			if lent.Rows[jj][i] != w[i] {
				t.Fatalf("EncodeExtInto scale %g level %d: row %d coefficient %d is %d, oracle %d", scale, level, jj, i, lent.Rows[jj][i], w[i])
			}
			if jj <= level && pt.Value.Coeffs[jj][i] != w[i] {
				t.Fatalf("EncodeAtLevel scale %g level %d: row %d coefficient %d is %d, oracle %d", scale, level, jj, i, pt.Value.Coeffs[jj][i], w[i])
			}
			if ext.Rows[jj][i] != w[i] {
				t.Fatalf("EncodeExtAtLevel scale %g level %d: row %d coefficient %d is %d, oracle %d", scale, level, jj, i, ext.Rows[jj][i], w[i])
			}
		}
	}
}

// sparseTestParameters is TestParameters(logN, levels) with 2^logSlots slots
// (logSlots ≥ 1), so the encoder's coefficient gap is 2^(logN-1-logSlots).
func sparseTestParameters(t testing.TB, logN, levels, logSlots int) *Parameters {
	t.Helper()
	logQ := []int{50}
	for i := 0; i < levels; i++ {
		logQ = append(logQ, 45)
	}
	p, err := NewParameters(ParametersLiteral{LogN: logN, LogSlots: logSlots, LogQ: logQ, LogP: 50, Scale: 1 << 45})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// encodeCorpus draws slot vectors that put scaled coefficients everywhere the
// word path branches: below one, around 2^53 (mantissa edge) and around 2^63
// and 2^64 (where the shift leaves the word), both signs, and exact zeros.
func encodeCorpus(slots int, seed int64, amp float64) []complex128 {
	vals := randomComplex(slots, seed)
	for i := range vals {
		switch i % 5 {
		case 0:
			vals[i] *= complex(amp, 0)
		case 1:
			vals[i] = complex(real(vals[i])*amp, 0)
		case 2:
			vals[i] *= complex(amp*0x1p-20, 0)
		case 3:
			vals[i] = 0
		}
	}
	return vals
}

func TestEncodeMatchesBigOracle(t *testing.T) {
	for _, logSlots := range []int{9, 6, 1} {
		params := sparseTestParameters(t, 10, 4, logSlots)
		enc, o := NewEncoder(params), newEncodeOracle(params)
		seed := int64(logSlots)
		for _, scale := range []float64{1 << 30, 1 << 45, 1 << 60} {
			// amp·scale sweeps 2^-3 … 2^70: sub-unit, word-sized, and beyond.
			for _, amp := range []float64{0x1p-33, 1, 0x1p7, 0x1p18, 0x1p23 + 1, 0x1p33, 0x1p40} {
				for level := 0; level <= params.MaxLevel(); level++ {
					seed++
					checkEncodeAgainstOracle(t, enc, o, encodeCorpus(params.Slots(), seed, amp), scale, level)
				}
			}
		}
		// Fewer values than slots are zero-padded on both paths.
		checkEncodeAgainstOracle(t, enc, o, encodeCorpus(params.Slots(), 99, 3)[:params.Slots()/2+1], 1<<45, 2)
	}
}

// TestFloatWordMatchesBigFloatInt pins the integer part at the boundaries of
// every floatWord branch against big.Float.Int (truncation toward zero).
func TestFloatWordMatchesBigFloatInt(t *testing.T) {
	edges := []float64{0, 0x1p-1074, 0.5, math.Nextafter(1, 0), 1, 1.5, 2.75, 1e6 + 0.999}
	for _, p := range []float64{0x1p52, 0x1p53, 0x1p62, 0x1p63, 0x1p64, 0x1p65, 0x1p100, 0x1p1000, math.MaxFloat64} {
		edges = append(edges, math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1)))
	}
	for _, v := range edges {
		for _, s := range []float64{v, -v} {
			if math.IsInf(s, 0) {
				continue
			}
			w, ok := floatWord(s)
			if !ok {
				t.Fatalf("floatWord(%g) rejected a finite value", s)
			}
			got := new(big.Int).Lsh(new(big.Int).SetUint64(w.Mag), uint(w.Shift))
			if w.Neg {
				got.Neg(got)
			}
			want, _ := new(big.Float).SetFloat64(s).Int(nil)
			if got.Cmp(want) != 0 {
				t.Fatalf("floatWord(%g) = %v, big.Float.Int %v", s, got, want)
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := floatWord(v); ok {
			t.Fatalf("floatWord(%g) accepted", v)
		}
	}
}

// TestSpecialFFTTablesMatchIndexFormula pins both directions of the special
// FFT, which read precomputed per-stage twiddles, against the butterfly loops
// that computed each twiddle index in place.
func TestSpecialFFTTablesMatchIndexFormula(t *testing.T) {
	for _, logSlots := range []int{9, 4, 1} {
		params := sparseTestParameters(t, 10, 1, logSlots)
		enc, o := NewEncoder(params), newEncodeOracle(params)
		for name, pair := range map[string][2]func([]complex128){
			"inverse": {enc.fftSpecialInv, o.fftSpecialInv},
			"forward": {enc.fftSpecial, o.fftSpecial},
		} {
			got := randomComplex(params.Slots(), 7)
			want := append([]complex128(nil), got...)
			pair[0](got)
			pair[1](want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s FFT, %d slots: element %d is %v, index formula gives %v", name, params.Slots(), i, got[i], want[i])
				}
			}
		}
	}
}

// TestEncodeRejectsNonFinite: a NaN slot used to panic inside
// big.Float.SetFloat64 and ±Inf silently encoded as zero.
func TestEncodeRejectsNonFinite(t *testing.T) {
	params := TestParameters(10, 2)
	enc := NewEncoder(params)
	for _, bad := range []complex128{complex(math.NaN(), 0), complex(0, math.NaN()), complex(math.Inf(1), 0), complex(1, math.Inf(-1)), complex(math.MaxFloat64, 0)} {
		vals := randomComplex(params.Slots(), 3)
		vals[5] = bad
		if pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), 1); err == nil || pt != nil {
			t.Errorf("EncodeAtLevel with slot %v: plaintext %v, error %v", bad, pt, err)
		}
		if pt, err := enc.EncodeExtAtLevel(vals, params.DefaultScale(), 1); err == nil || pt != nil {
			t.Errorf("EncodeExtAtLevel with slot %v: plaintext %v, error %v", bad, pt, err)
		}
	}
	if _, err := enc.EncodeExtAtLevel(nil, params.DefaultScale(), params.MaxLevel()+1); err == nil {
		t.Error("EncodeExtAtLevel above the top level: no error")
	}
	if err := enc.EncodeExtInto(nil, 1, &ExtPlaintext{Lvl: 1, Rows: make([][]uint64, 2)}); err == nil {
		t.Error("EncodeExtInto with a row short: no error")
	}
}

// TestEncodeAllocationShape: an encode allocates its FFT buffer, its word
// buffer and its output row by row, and nothing per coefficient — the count
// stays where it is when N quadruples. (Five and one per extended row at
// level 4 without the race detector, whose bookkeeping adds a few that come
// and go; hence a margin and not an equality.)
func TestEncodeAllocationShape(t *testing.T) {
	ring.SetSerial(true) // no goroutine bookkeeping in the count
	defer ring.SetSerial(false)
	counts, rows := map[int]float64{}, 0
	for _, logN := range []int{10, 12} {
		params := TestParameters(logN, 4)
		rows = params.ExtRows(4)
		enc := NewEncoder(params)
		vals := randomComplex(params.Slots(), 1)
		counts[logN] = testing.AllocsPerRun(100, func() {
			if _, err := enc.EncodeExtAtLevel(vals, params.DefaultScale(), 4); err != nil {
				t.Fatal(err)
			}
		})
	}
	if counts[12] > counts[10]+2 || counts[12] > float64(rows+10) {
		t.Fatalf("EncodeExtAtLevel allocations: %v at N=2^10, %v at N=2^12; want the same handful", counts[10], counts[12])
	}
}

// FuzzEncodeResidues is the differential fuzzer of the word encode path
// against the math/big oracle: residue for residue, EncodeAtLevel and
// EncodeExtAtLevel, over every level of TestParameters(10,4), dense and
// sparse slot counts, scales 2^30…2^60 and magnitudes that put coefficients
// below one, around 2^53 and on both sides of 2^63.
func FuzzEncodeResidues(f *testing.F) {
	f.Add(int64(1), uint8(45), int16(0), uint8(4), uint8(9))     // unit values, default scale, top level
	f.Add(int64(2), uint8(30), int16(-40), uint8(0), uint8(9))   // sub-unit coefficients
	f.Add(int64(3), uint8(45), int16(8), uint8(2), uint8(9))     // around 2^53
	f.Add(int64(4), uint8(60), int16(3), uint8(3), uint8(9))     // around 2^63
	f.Add(int64(5), uint8(60), int16(10), uint8(4), uint8(5))    // beyond 2^64, gap 16
	f.Add(int64(6), uint8(50), int16(13), uint8(1), uint8(0))    // two slots
	f.Add(int64(7), uint8(60), int16(970), uint8(4), uint8(9))   // float64 overflow: both must refuse
	f.Add(int64(8), uint8(33), int16(-1000), uint8(2), uint8(3)) // everything truncates to zero
	type env struct {
		enc *Encoder
		o   *encodeOracle
	}
	envs := map[int]env{}
	f.Fuzz(func(t *testing.T, seed int64, logScale uint8, logAmp int16, level, logSlots uint8) {
		ls := 1 + int(logSlots)%9
		ev, ok := envs[ls]
		if !ok {
			params := sparseTestParameters(t, 10, 4, ls)
			ev = env{NewEncoder(params), newEncodeOracle(params)}
			envs[ls] = ev
		}
		scale := math.Ldexp(1, 30+int(logScale)%31)
		amp := math.Ldexp(1, int(logAmp)%1024)
		vals := encodeCorpus(ev.enc.params.Slots(), seed, amp)
		checkEncodeAgainstOracle(t, ev.enc, ev.o, vals, scale, int(level)%5)
	})
}
