package ring

import (
	"reflect"
	"testing"
)

// nttOracle is the textbook five-pass radix-2 negacyclic NTT (twist,
// bit-reverse, full-reduction Cooley–Tukey butterflies; the inverse closes
// with an untwist that carries the 1/N scale): the bit-identity oracle both
// production kernels are pinned to. It is self-contained — it builds its own
// power tables from (N, q, ψ) and shares no table with NTTTable — so the
// production table holds only what the production kernels read.
type nttOracle struct {
	n int
	q uint64

	psiPows, psiPowsShoup                   []uint64 // ψ^i
	scaledPsiInvPows, scaledPsiInvPowsShoup []uint64 // ψ^(-i) / N
	omegaPows, omegaPowsShoup               []uint64 // ω^i, ω = ψ²
	omegaInvPows, omegaInvPowsShoup         []uint64
	brv                                     []int
}

func newNTTOracle(n int, q, psi uint64) *nttOracle {
	o := &nttOracle{n: n, q: q, brv: bitReversePerm(n)}
	o.psiPows = powerTable(psi, n, q)
	o.psiPowsShoup = shoupTable(o.psiPows, q)
	nInv := InvMod(uint64(n), q)
	o.scaledPsiInvPows = powerTable(InvMod(psi, q), n, q)
	for i, v := range o.scaledPsiInvPows {
		o.scaledPsiInvPows[i] = MulMod(v, nInv, q)
	}
	o.scaledPsiInvPowsShoup = shoupTable(o.scaledPsiInvPows, q)
	omega := MulMod(psi, psi, q)
	o.omegaPows = powerTable(omega, n, q)
	o.omegaPowsShoup = shoupTable(o.omegaPows, q)
	o.omegaInvPows = powerTable(InvMod(omega, q), n, q)
	o.omegaInvPowsShoup = shoupTable(o.omegaInvPows, q)
	return o
}

// newTableAndOracle builds the production table and its oracle for the first
// logQ-bit NTT-friendly prime of length n.
func newTableAndOracle(n, logQ int) (*NTTTable, *nttOracle) {
	q := GenerateNTTPrimes(logQ, n, 1)[0]
	psi := PrimitiveRoot2N(n, q)
	return NewNTTTable(n, q, psi), newNTTOracle(n, q, psi)
}

// Forward expects canonical input.
func (o *nttOracle) Forward(a []uint64) {
	for i := range a {
		a[i] = MulModShoup(a[i], o.psiPows[i], o.psiPowsShoup[i], o.q)
	}
	o.bitReverse(a)
	o.cyclicRadix2(a, o.omegaPows, o.omegaPowsShoup)
}

func (o *nttOracle) Inverse(a []uint64) {
	o.bitReverse(a)
	o.cyclicRadix2(a, o.omegaInvPows, o.omegaInvPowsShoup)
	for i := range a {
		a[i] = MulModShoup(a[i], o.scaledPsiInvPows[i], o.scaledPsiInvPowsShoup[i], o.q)
	}
}

func (o *nttOracle) bitReverse(a []uint64) {
	for i, r := range o.brv {
		if i < r {
			a[i], a[r] = a[r], a[i]
		}
	}
}

// cyclicRadix2 is the classic iterative Cooley–Tukey DIT transform on
// bit-reversed input, natural-order output, every butterfly fully reduced.
func (o *nttOracle) cyclicRadix2(a, w, wShoup []uint64) {
	for h := 1; h < o.n; h <<= 1 {
		step := o.n / (2 * h) // twiddle stride for this stage
		for k := 0; k < o.n; k += 2 * h {
			for j := 0; j < h; j++ {
				u := a[k+j]
				v := MulModShoup(a[k+j+h], w[step*j], wShoup[step*j], o.q)
				a[k+j] = AddMod(u, v, o.q)
				a[k+j+h] = SubMod(u, v, o.q)
			}
		}
	}
}

// TestNTTTableFootprint pins what a built table keeps resident: the four
// merged twiddle tables and the bit-reversal permutation, 5·N words. Twiddles
// are the scarce on-chip resident of the hardware this models; a table that
// grows another N-word array has to say here which kernel reads it.
func TestNTTTableFootprint(t *testing.T) {
	for _, logN := range []int{9, 12} { // generic kernel, generated kernel
		n := 1 << logN
		tbl, _ := newTableAndOracle(n, 45)
		words := 0
		v := reflect.ValueOf(tbl).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				words += f.Len()
			}
		}
		if words > 5*n {
			t.Errorf("logN=%d: table slices hold %d words, want <= 5N = %d", logN, words, 5*n)
		}
	}
}
