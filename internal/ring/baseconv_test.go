package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

// convTestRing is a degree-8 ring over twelve primes of three widths, so a
// conversion's source moduli can be wider or narrower than its targets.
func convTestRing(t testing.TB) *Ring {
	t.Helper()
	var moduli []uint64
	for _, logQ := range []int{61, 45, 30} {
		moduli = append(moduli, GenerateNTTPrimes(logQ, 8, 4)...)
	}
	r, err := NewRing(8, moduli)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// crtBig is the math/big oracle: the integer in [0, Q) with the given
// residues, and Q, the product of the moduli.
func crtBig(res, moduli []uint64) (x, q *big.Int) {
	q = big.NewInt(1)
	for _, m := range moduli {
		q.Mul(q, new(big.Int).SetUint64(m))
	}
	x = new(big.Int)
	for i, m := range moduli {
		mi := new(big.Int).SetUint64(m)
		hat := new(big.Int).Div(q, mi)
		term := new(big.Int).ModInverse(hat, mi)
		term.Mul(term, hat).Mul(term, new(big.Int).SetUint64(res[i]))
		x.Add(x, term)
	}
	return x.Mod(x, q), q
}

func modBig(x *big.Int, m uint64) uint64 {
	return new(big.Int).Mod(x, new(big.Int).SetUint64(m)).Uint64()
}

// checkBaseConversion checks both conversions out of the basis at the
// (consecutive) table indices from against math/big, on the polynomial p (every row of the ring,
// coefficient domain, canonical): ModUp must give x + u·Q_B with one u in
// [0, len(from)) on every target row, ModDown exactly round(x/Q_B).
func checkBaseConversion(t *testing.T, r *Ring, from []int, p *Poly) {
	t.Helper()
	own := map[int]bool{}
	var srcModuli []uint64
	for _, s := range from {
		own[s] = true
		srcModuli = append(srcModuli, r.Moduli[s])
	}
	source := func() [][]uint64 {
		rows := make([][]uint64, len(from))
		for s, i := range from {
			rows[s] = append([]uint64(nil), p.Coeffs[i]...)
		}
		return rows
	}

	lo, hi := from[0], from[len(from)-1]+1
	up, down := r.NewBasisConv(lo, hi), r.NewModDown(lo, hi)
	lifted, quotient := make([][]uint64, len(r.Moduli)), make([][]uint64, len(r.Moduli))
	y := source()
	up.Scale(y)
	z, overflow := source(), make([]uint64, r.N)
	down.Digits(z, overflow)
	for i, m := range r.Moduli {
		if own[i] {
			continue
		}
		lifted[i], quotient[i] = make([]uint64, r.N), make([]uint64, r.N)
		up.Extend(y, i, lifted[i])
		ReduceFinalVec(lifted[i], m)
		down.Remainder(z, overflow, i, quotient[i])
		down.Finish(i, p.Coeffs[i], quotient[i])
	}

	res, all := make([]uint64, len(from)), make([]uint64, len(r.Moduli))
	for j := 0; j < r.N; j++ {
		for s, i := range from {
			res[s] = p.Coeffs[i][j]
		}
		for i := range all {
			all[i] = p.Coeffs[i][j]
		}
		xB, qB := crtBig(res, srcModuli)
		x, _ := crtBig(all, r.Moduli)

		found := false
		for u := 0; u < len(from) && !found; u++ {
			v := new(big.Int).Mul(big.NewInt(int64(u)), qB)
			v.Add(v, xB)
			found = true
			for i, m := range r.Moduli {
				if !own[i] && modBig(v, m) != lifted[i][j] {
					found = false
				}
			}
		}
		if !found {
			t.Fatalf("ModUp from %v, coefficient %d: the target rows hold x + u·Q_B for no single u < %d", from, j, len(from))
		}

		half := new(big.Int).Rsh(qB, 1)
		shifted := new(big.Int).Add(x, half)
		want := new(big.Int).Div(shifted, qB) // ⌊(x+h)/Q_B⌋ = round(x/Q_B), Q_B odd
		// The overflow estimate is short by less than 1.25·len(from)·2^-64,
		// so exactness is promised outside that sliver above a multiple of
		// Q_B; inside it the quotient may come out one short.
		sliver := new(big.Int).Rsh(new(big.Int).Mul(qB, big.NewInt(int64(len(from)))), 63)
		exact := new(big.Int).Mod(shifted, qB).Cmp(sliver) >= 0
		for i, m := range r.Moduli {
			if own[i] {
				continue
			}
			got := quotient[i][j]
			if got != modBig(want, m) && (exact || got != modBig(new(big.Int).Sub(want, big.NewInt(1)), m)) {
				t.Fatalf("ModDown from %v, coefficient %d, row %d: got %d, round(x/Q_B) is %d", from, j, i, got, modBig(want, m))
			}
		}
	}
}

// TestBaseConversionMatchesBigOracle runs the oracle over every source size
// the keyswitch uses and sources wider and narrower than the targets, on
// random polynomials and on the ModDown corner cases: all-zero source
// residues (a lifted ciphertext: x a multiple of Q_B, which the half-shift
// puts at fraction one half) and x + ⌊Q_B/2⌋ one below, at and one above a
// multiple of Q_B.
func TestBaseConversionMatchesBigOracle(t *testing.T) {
	r := convTestRing(t)
	smp := NewSampler(r, 5)
	for _, from := range [][]int{{0}, {11}, {4, 5}, {0, 1, 2}, {8, 9, 10, 11}, {2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}, {3, 4, 5, 6, 7, 8}} {
		p := r.NewPoly(r.MaxLevel())
		for trial := 0; trial < 8; trial++ {
			smp.Uniform(p)
			checkBaseConversion(t, r, from, p)
		}
		for j := 0; j < r.N; j++ {
			for _, s := range from {
				// Coefficient 0 all zero; coefficient j ≥ 1 has x + ⌊Q_B/2⌋ ≡ j−2,
				// as −⌊Q_B/2⌋ ≡ (q_s+1)/2 mod q_s.
				p.Coeffs[s][j] = 0
				if j > 0 {
					p.Coeffs[s][j] = (r.Moduli[s]+1)/2 + uint64(j) - 2
				}
			}
		}
		checkBaseConversion(t, r, from, p)
	}
}

// FuzzBaseConversion is the differential fuzzer of the RNS base conversions
// against math/big: a random source basis of one to six moduli (contiguous
// from a random start, as keyswitch digits and the special primes are) and
// random residues, drawn from the seed.
func FuzzBaseConversion(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(5))
	f.Add(int64(3), uint8(8), uint8(3))
	f.Add(int64(4), uint8(6), uint8(2))
	r := convTestRing(f)
	f.Fuzz(func(t *testing.T, seed int64, start, size uint8) {
		g := 1 + int(size)%6
		lo := int(start) % (len(r.Moduli) - g + 1)
		from := make([]int, g)
		for s := range from {
			from[s] = lo + s
		}
		p := r.NewPoly(r.MaxLevel())
		rng := rand.New(rand.NewSource(seed))
		for i, m := range r.Moduli {
			for j := range p.Coeffs[i] {
				// Mostly uniform, with runs of zeros and of q−1.
				switch rng.Intn(8) {
				case 0:
				case 1:
					p.Coeffs[i][j] = m - 1
				default:
					p.Coeffs[i][j] = uniform64(rng, m)
				}
			}
		}
		checkBaseConversion(t, r, from, p)
	})
}
