package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestNTTKernelSelection pins the one kernel-selection rule and both sides of
// it. NewNTTTable picks the generated kernel exactly when the degree is in
// ShippedKernelLogNs and q < GeneratedQBound, and the generic merged kernel
// otherwise; whichever it picks, Forward, Inverse and ForwardBatch must be
// bit-identical to the radix-2 reference oracle, from canonical input and —
// for the forward, whose contract allows it — from lazy (< 4q) input. The
// generic kernel is additionally run directly on every table, so it stays
// pinned at the degrees where dispatch never reaches it. A divergence on a
// generated row localizes an emission bug in cmd/hydra-genkernels to a
// specific (LogN parity, direction) template.
func TestNTTKernelSelection(t *testing.T) {
	type selCase struct {
		logN, logQ int
		generated  bool
	}
	cases := []selCase{
		{9, 45, false},  // degree ships no kernel (the he-boot shape)
		{12, 58, false}, // shipped degree, q ≥ GeneratedQBound: out of lazy headroom
	}
	for _, logN := range ShippedKernelLogNs {
		if testing.Short() && logN > 14 {
			continue
		}
		cases = append(cases, selCase{logN, 45, true}, selCase{logN, 55, true})
	}

	forwardGeneric := func(tbl *NTTTable, a []uint64) {
		tbl.forwardMergedLazy(a)
		tbl.finishForward(a)
	}
	inverseGeneric := func(tbl *NTTTable, a []uint64) {
		tbl.bitReverse(a)
		tbl.inverseMergedLazy(a)
	}

	rng := rand.New(rand.NewSource(0x9e3779b9))
	for _, c := range cases {
		t.Run(fmt.Sprintf("logN=%d/logQ=%d", c.logN, c.logQ), func(t *testing.T) {
			n := 1 << c.logN
			tbl, oracle := newTableAndOracle(n, c.logQ)
			q := tbl.Mod.Q
			if (q < GeneratedQBound) != (c.logQ < 56) {
				t.Fatalf("prime %d is on the wrong side of GeneratedQBound for a %d-bit case", q, c.logQ)
			}
			if got := tbl.gen != nil; got != c.generated {
				t.Fatalf("generated kernel selected = %v, want %v", got, c.generated)
			}

			equal := func(what string, got, want []uint64) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: [%d]=%d, reference=%d", what, i, got[i], want[i])
					}
				}
			}
			for _, bound := range []uint64{q, 4 * q} {
				in := make([]uint64, n)
				want := make([]uint64, n)
				for i := range in {
					in[i] = rng.Uint64() % bound
					want[i] = in[i] % q // the oracle expects canonical input
				}
				oracle.Forward(want)

				got := append([]uint64(nil), in...)
				tbl.Forward(got)
				equal(fmt.Sprintf("Forward(input < %dq)", bound/q), got, want)

				got = append(got[:0], in...)
				forwardGeneric(tbl, got)
				equal(fmt.Sprintf("generic forward(input < %dq)", bound/q), got, want)

				rows := [][]uint64{append([]uint64(nil), in...), append([]uint64(nil), in...), append([]uint64(nil), in...)}
				tbl.ForwardBatch(rows)
				for _, row := range rows {
					equal(fmt.Sprintf("ForwardBatch(input < %dq)", bound/q), row, want)
				}
			}

			// Inverse's contract is canonical input.
			in := randomCoeffs(rng, n, q)
			want := append([]uint64(nil), in...)
			oracle.Inverse(want)
			got := append([]uint64(nil), in...)
			tbl.Inverse(got)
			equal("Inverse", got, want)
			got = append(got[:0], in...)
			inverseGeneric(tbl, got)
			equal("generic inverse", got, want)
		})
	}
}
